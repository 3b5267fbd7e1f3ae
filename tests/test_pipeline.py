"""Pipeline semantics: caching, fingerprints, parallel/serial identity.

The guarantees under test are the ones the figure sweeps now depend on:
a job's identity is content-addressed (same code image + same codec
config → same fingerprint, in any process), cache hits never recompress,
corruption of the disk tier degrades to recompute (never a crash or a
wrong number), and ``--jobs N`` is bit-identical to the serial path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    compression_ratio,
    run_suite,
    run_suite_with_report,
    suite_jobs,
)
from repro.cli import main
from repro.obs import OBS_ENV, NullRecorder, obs_session, use_recorder
from repro.pipeline import (
    ExperimentJob,
    NullCache,
    ResultCache,
    job_fingerprint,
    run_pipeline,
)

#: Small, cheap job mix: two benchmarks × two fast algorithms.
JOBS = [
    ExperimentJob(benchmark, "mips", algorithm, scale=0.15, seed=3)
    for benchmark in ("compress", "tomcatv")
    for algorithm in ("compress", "huffman")
]


def _entry_files(cache_dir: Path):
    return sorted(cache_dir.rglob("*.json"))


class TestFingerprint:
    def test_distinct_configs_distinct_fingerprints(self):
        code = b"\x00\x11\x22\x33" * 8
        base = job_fingerprint(code, "SAMC", "mips", 32)
        assert job_fingerprint(code, "SAMC", "mips", 64) != base
        assert job_fingerprint(code, "SADC", "mips", 32) != base
        assert job_fingerprint(code, "SAMC", "x86", 32) != base
        assert job_fingerprint(code + b"\x00" * 4, "SAMC", "mips", 32) != base

    def test_stable_across_processes(self):
        """Fingerprints must not depend on per-process hash randomisation."""
        code = bytes(range(64))
        local = job_fingerprint(code, "SAMC", "mips", 32)
        script = (
            "from repro.pipeline import job_fingerprint;"
            "print(job_fingerprint(bytes(range(64)), 'SAMC', 'mips', 32))"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"  # force a different hash() universe
        remote = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert remote == local

    def test_scale_int_float_equivalent(self):
        code = b"\x90" * 32
        a = ExperimentJob("compress", "mips", "huffman", scale=1).fingerprint(code)
        b = ExperimentJob("compress", "mips", "huffman", scale=1.0).fingerprint(code)
        assert a == b


class TestCacheSemantics:
    def test_miss_then_memory_hit(self):
        cache = ResultCache()
        first = run_pipeline(JOBS, cache=cache)
        assert first.hits == 0
        assert first.recompressions == len(JOBS)
        second = run_pipeline(JOBS, cache=cache)
        assert second.hits == len(JOBS)
        assert second.recompressions == 0
        assert second.ratios() == first.ratios()

    def test_disk_tier_survives_new_process_state(self, tmp_path):
        first = run_pipeline(JOBS, cache=ResultCache(tmp_path))
        assert _entry_files(tmp_path), "disk tier wrote no entries"
        # A fresh cache instance models a brand-new process: memo empty.
        fresh = ResultCache(tmp_path)
        second = run_pipeline(JOBS, cache=fresh)
        assert second.hits == len(JOBS)
        assert second.recompressions == 0
        assert fresh.stats.disk_hits == len(JOBS)
        assert second.ratios() == first.ratios()

    def test_null_cache_always_recompresses(self):
        cache = NullCache()
        run_pipeline(JOBS, cache=cache)
        report = run_pipeline(JOBS, cache=cache)
        assert report.hits == 0
        assert report.recompressions == len(JOBS)

    def test_duplicate_jobs_compress_once(self):
        report = run_pipeline([JOBS[0], JOBS[0], JOBS[0]], cache=NullCache())
        assert report.job_count == 3
        assert report.recompressions == 1
        assert len(set(report.ratios())) == 1

    def test_corrupted_entry_recovers_by_recompute(self, tmp_path):
        baseline = run_pipeline(JOBS, cache=ResultCache(tmp_path))
        entries = _entry_files(tmp_path)
        entries[0].write_text("definitely { not json")
        # Valid JSON whose fingerprint does not match its filename.
        forged = {
            "version": 1,
            "fingerprint": "0" * 64,
            "payload": {"ratio": 0.0, "bytes_in": 1, "bytes_out": 0},
        }
        entries[1].write_text(json.dumps(forged))

        fresh = ResultCache(tmp_path)
        report = run_pipeline(JOBS, cache=fresh)
        assert report.ratios() == baseline.ratios()
        assert fresh.stats.corrupt == 2
        assert report.recompressions == 2  # only the two damaged entries

        # The recompute rewrote the damaged entries: next run is all hits.
        again = run_pipeline(JOBS, cache=ResultCache(tmp_path))
        assert again.hits == len(JOBS)

    def test_cache_dir_collision_fails_before_compute(self, tmp_path):
        """A cache path that is actually a file must fail up front, not
        after the sweep has burned CPU on every job."""
        collision = tmp_path / "occupied"
        collision.write_text("not a directory")
        with pytest.raises(ValueError, match="not usable"):
            ResultCache(collision)

    def test_cache_dir_created_eagerly(self, tmp_path):
        target = tmp_path / "nested" / "cache"
        ResultCache(target)
        assert target.is_dir()

    def test_truncated_entry_never_crashes(self, tmp_path):
        run_pipeline(JOBS[:1], cache=ResultCache(tmp_path))
        for entry in _entry_files(tmp_path):
            entry.write_bytes(entry.read_bytes()[: len(entry.read_bytes()) // 2])
        report = run_pipeline(JOBS[:1], cache=ResultCache(tmp_path))
        assert report.job_count == 1
        assert report.recompressions == 1


class TestParallelIdentity:
    def test_jobs_1_vs_jobs_n_bit_identical(self):
        serial = run_pipeline(JOBS, max_workers=1, cache=NullCache())
        parallel = run_pipeline(JOBS, max_workers=3, cache=NullCache())
        assert serial.ratios() == parallel.ratios()
        assert [r.bytes_out for r in serial.results] == \
               [r.bytes_out for r in parallel.results]

    def test_run_suite_parallel_identity(self):
        kwargs = dict(
            algorithms=("huffman", "compress"), scale=0.15,
            names=("compress", "tomcatv"), seed=3,
        )
        assert run_suite("mips", jobs=1, **kwargs) == \
               run_suite("mips", jobs=3, **kwargs)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            run_pipeline(JOBS, max_workers=0)


class TestTelemetryMerge:
    """Cross-process telemetry: serial and parallel runs aggregate the
    same counters, bit accounts, and histograms (spans differ only in
    wall time, so only their structure is compared)."""

    @staticmethod
    def _run(workers):
        with obs_session():
            report = run_pipeline(JOBS, max_workers=workers, cache=NullCache())
        return report.telemetry

    def test_jobs_1_vs_jobs_n_telemetry_identical(self):
        serial = self._run(1)
        parallel = self._run(3)
        assert serial is not None and parallel is not None
        assert serial["counters"] == parallel["counters"]
        assert serial["bits"] == parallel["bits"]
        assert serial["histograms"] == parallel["histograms"]
        assert serial["gauges"] == parallel["gauges"]
        assert {p: c["count"] for p, c in serial["spans"].items()} == \
               {p: c["count"] for p, c in parallel["spans"].items()}

    def test_telemetry_rolls_into_ambient_recorder(self):
        with obs_session() as rec:
            run_pipeline(JOBS[:2], max_workers=1, cache=NullCache())
            snap = rec.snapshot()
        # Worker-side job telemetry merged into the session recorder.
        assert any(scope for scope in snap["bits"])
        assert any(path.startswith("pipeline.run") for path in snap["spans"])

    def test_telemetry_none_when_obs_off(self, monkeypatch):
        # Force-disable even when the surrounding suite runs with
        # REPRO_OBS=1 (the CI obs job): the inline jobs=1 path consults
        # the ambient recorder.
        monkeypatch.delenv(OBS_ENV, raising=False)
        with use_recorder(NullRecorder()):
            report = run_pipeline(JOBS[:1], cache=NullCache())
        assert report.telemetry is None

    def test_duplicate_jobs_counted_per_occurrence(self):
        with obs_session():
            once = run_pipeline([JOBS[0]], cache=NullCache()).telemetry
        with obs_session():
            thrice = run_pipeline([JOBS[0]] * 3, cache=NullCache()).telemetry
        # Replay semantics: the aggregate reflects the job *list*, not
        # the deduplicated compute set.
        for name, value in once["counters"].items():
            assert thrice["counters"][name] == 3 * value
        scope = next(iter(once["bits"]))
        for category, bits in once["bits"][scope].items():
            assert thrice["bits"][scope][category] == 3 * bits


class TestSuiteWiring:
    def test_rows_preserve_figure_order(self):
        rows, report = run_suite_with_report(
            "mips", algorithms=("huffman", "compress"), scale=0.15,
            names=("tomcatv", "compress"), seed=3,
        )
        assert [row.benchmark for row in rows] == ["tomcatv", "compress"]
        assert list(rows[0].ratios) == ["huffman", "compress"]
        assert report.job_count == 4

    def test_suite_matches_direct_computation(self):
        from repro.workloads.suite import generate_benchmark

        rows = run_suite("mips", algorithms=("huffman",), scale=0.15,
                         names=("compress",), seed=3)
        code = generate_benchmark("compress", "mips", scale=0.15, seed=3).code
        assert rows[0].ratios["huffman"] == \
               compression_ratio(code, "huffman", "mips", 32)

    def test_suite_jobs_enumeration(self):
        jobs = suite_jobs("x86", algorithms=("SAMC",), names=("gcc", "li"))
        assert jobs == [
            ExperimentJob("gcc", "x86", "SAMC"),
            ExperimentJob("li", "x86", "SAMC"),
        ]

    def test_compression_ratio_rejects_bad_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            compression_ratio(b"\x00" * 32, "SAMC", "mips", block_size=0)
        with pytest.raises(ValueError, match="block_size"):
            compression_ratio(b"\x00" * 32, "huffman", "mips", block_size=-8)


class TestCli:
    ARGS = ["suite", "--isa", "mips", "--scale", "0.15",
            "--algorithms", "huffman", "compress",
            "--benchmarks", "compress", "tomcatv"]

    def test_stdout_identical_across_job_widths(self, capsys):
        assert main(self.ARGS + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel
        assert "Compression ratios" in serial

    def test_cached_second_run_zero_recompressions(self, tmp_path, capsys):
        args = self.ARGS + ["--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--jobs", "4"]) == 0
        captured = capsys.readouterr()
        assert "4 cache hits, 0 recompressions" in captured.err

    def test_no_cache_flag(self, tmp_path, capsys):
        args = self.ARGS + ["--cache-dir", str(tmp_path), "--no-cache"]
        assert main(args) == 0
        assert not _entry_files(tmp_path)
        assert "0 cache hits" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Fault tolerance: failing jobs degrade the report, never abort the batch.
# ---------------------------------------------------------------------------


def _job(algorithm, benchmark="compress", **kwargs):
    return ExperimentJob(benchmark, "mips", algorithm, scale=0.15, seed=3,
                         **kwargs)


class TestFaultTolerantPipeline:
    def test_failing_job_is_isolated(self):
        jobs = [_job("compress"), _job("no-such-algorithm"), _job("huffman")]
        report = run_pipeline(jobs, cache=NullCache())
        assert report.job_count == 2  # the two good jobs completed
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.kind == "error"
        assert failure.error_type == "ValueError"
        assert failure.job.algorithm == "no-such-algorithm"
        assert failure.attempts == 1

    def test_retries_are_counted_then_exhausted(self):
        jobs = [_job("no-such-algorithm")]
        report = run_pipeline(jobs, cache=NullCache(), retries=2)
        assert report.failures[0].attempts == 3  # 1 try + 2 retries

    def test_generation_failure_fails_all_dependent_jobs(self):
        jobs = [
            ExperimentJob("no-such-benchmark", "mips", "compress", scale=0.15),
            ExperimentJob("no-such-benchmark", "mips", "huffman", scale=0.15),
            _job("compress"),
        ]
        report = run_pipeline(jobs, cache=NullCache())
        assert report.job_count == 1
        assert len(report.failures) == 2
        assert all(f.kind == "generation" for f in report.failures)

    def test_failures_identical_across_job_widths(self):
        jobs = [_job("compress"), _job("no-such-algorithm"),
                _job("huffman"), _job("no-such-algorithm", benchmark="tomcatv")]
        serial = run_pipeline(jobs, max_workers=1, cache=NullCache())
        parallel = run_pipeline(jobs, max_workers=4, cache=NullCache())
        key = lambda f: (f.job, f.kind, f.error_type, f.attempts)
        assert [key(f) for f in serial.failures] == \
            [key(f) for f in parallel.failures]
        assert serial.ratios() == parallel.ratios()

    def test_pool_timeout_recorded_not_hung(self):
        jobs = [_job("compress"), _job("huffman")]
        report = run_pipeline(jobs, max_workers=2, cache=NullCache(),
                              job_timeout=1e-6)
        assert report.job_count == 0
        assert len(report.failures) == 2
        assert all(f.kind == "timeout" for f in report.failures)

    def test_failure_report_renders(self):
        report = run_pipeline([_job("no-such-algorithm")], cache=NullCache())
        text = report.format()
        assert "1 FAILED" in text
        assert "no-such-algorithm" in text
        assert report.summary()["failures"] == 1

    def test_degraded_suite_renders_partial_table(self, monkeypatch):
        # Make one algorithm blow up mid-suite and check the table still
        # renders, with `-` in the damaged cells.
        from repro.analysis import experiments
        from repro.analysis.tables import format_suite

        real = experiments.compression_ratio
        blown = []

        def flaky(code, algorithm, isa, block_size=32):
            if algorithm == "huffman" and not blown:
                blown.append(True)
                raise RuntimeError("injected")
            return real(code, algorithm, isa, block_size)

        monkeypatch.setattr(experiments, "compression_ratio", flaky)
        rows, report = run_suite_with_report(
            "mips", algorithms=("compress", "huffman"), scale=0.15,
            names=["compress", "tomcatv"], seed=3, cache=NullCache(),
        )
        assert len(report.failures) == 1
        table = format_suite(rows)
        assert f"  {'-':>9}" in table  # the damaged cell renders as a hole
        assert "huffman" in table  # the column survives via the other row
        assert len(rows) == 2

    def test_failure_counters_reach_obs(self):
        from repro.obs import obs_session

        with obs_session() as recorder:
            run_pipeline([_job("no-such-algorithm")], cache=NullCache(),
                         retries=1)
            counters = recorder.snapshot()["counters"]
        assert counters.get("pipeline.job_failures") == 1
        assert counters.get("pipeline.job_retries") == 1


class TestCacheQuarantine:
    def test_corrupt_entries_are_quarantined(self, tmp_path):
        run_pipeline(JOBS, cache=ResultCache(tmp_path))
        entries = _entry_files(tmp_path)
        entries[0].write_text("definitely { not json")

        fresh = ResultCache(tmp_path)
        run_pipeline(JOBS, cache=fresh)
        assert fresh.stats.corrupt == 1
        assert fresh.stats.quarantined == 1
        assert fresh.stats.as_dict()["quarantined"] == 1
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [entries[0].name]
        assert quarantined[0].read_text() == "definitely { not json"

    def test_quarantine_counter_reaches_obs(self, tmp_path):
        from repro.obs import obs_session

        run_pipeline(JOBS, cache=ResultCache(tmp_path))
        _entry_files(tmp_path)[0].write_text("xx")
        with obs_session() as recorder:
            run_pipeline(JOBS, cache=ResultCache(tmp_path))
            counters = recorder.snapshot()["counters"]
        assert counters.get("resilience.cache_quarantined") == 1

    def test_quarantined_entry_not_reloaded(self, tmp_path):
        # The quarantine dir must not shadow the live entry namespace:
        # after recompute the fresh entry wins and hits normally.
        run_pipeline(JOBS, cache=ResultCache(tmp_path))
        _entry_files(tmp_path)[0].write_text("xx")
        run_pipeline(JOBS, cache=ResultCache(tmp_path))
        again = ResultCache(tmp_path)
        report = run_pipeline(JOBS, cache=again)
        assert report.hits == len(JOBS)
        assert again.stats.corrupt == 0
