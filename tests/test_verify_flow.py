"""Tests for the whole-program contract analyses (layer 3).

Four deliberately-broken fixture trees — one per analysis — must each
produce exactly one finding with the right rule id, file, and line;
their repaired counterparts must verify clean.  Plus unit coverage for
the call-graph tiers, the baseline machinery, and SARIF rendering.
"""

import textwrap
import time
from pathlib import Path

import pytest

from repro.verify import SEVERITY_ERROR, Finding
from repro.verify.baseline import (
    apply_baseline,
    baseline_key,
    load_baseline,
    write_baseline,
)
from repro.verify.callgraph import build_callgraph
from repro.verify.contracts import flow_rules
from repro.verify.lint import parse_tree, run_lint
from repro.verify.sarif import to_sarif


def _write_tree(root, files):
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(root)


def _flow_lint(root):
    return run_lint(flow_rules(), root=root)


def _graph(tmp_path, files):
    return build_callgraph(parse_tree(Path(_write_tree(tmp_path, files))))


# ---------------------------------------------------------------------------
# Broken fixtures: exactly one finding each, with rule id, file, line.
# ---------------------------------------------------------------------------


class TestBrokenFlowFixtures:
    def test_exception_leak(self, tmp_path):
        # A decode entry reaches a helper whose raw IndexError has no
        # decode_guard between it and the entry point.
        root = _write_tree(tmp_path, {
            "core/dec.py": """
                # repro: contract decode-entry
                def decode(data):
                    return _pick(data, 0)


                def _pick(data, i):
                    if i >= len(data):
                        raise IndexError("index out of range")
                    return data[i]
            """,
        })
        findings = _flow_lint(root)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "exception-leak"
        assert f.severity == SEVERITY_ERROR
        assert f.file.endswith("core/dec.py")
        assert f.line == 9  # the raise, not the entry point
        assert "IndexError" in f.message
        assert "core/dec.py::decode" in f.message

    def test_unpack_under_value_error_handler_leaks(self, tmp_path):
        # struct.error derives from Exception alone, so an
        # ``except ValueError`` around an unpack does not catch it.
        root = _write_tree(tmp_path, {
            "core/dec.py": """
                import struct

                # repro: contract decode-entry
                def decode(data):
                    try:
                        return struct.unpack(">I", data)[0]
                    except ValueError:
                        return 0
            """,
        })
        findings = _flow_lint(root)
        assert [(f.rule, f.line) for f in findings] == [("exception-leak", 7)]
        assert "struct.error" in findings[0].message

    def test_loop_progress(self, tmp_path):
        # A decode-reachable while loop whose body neither consumes
        # input nor advances a counter.
        root = _write_tree(tmp_path, {
            "core/spin.py": """
                # repro: contract decode-entry
                def decode(data):
                    while data:
                        pass
                    return data
            """,
        })
        findings = _flow_lint(root)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "loop-progress"
        assert f.file.endswith("core/spin.py")
        assert f.line == 4  # the while statement
        assert "progress metric" in f.message

    def test_determinism_taint(self, tmp_path):
        # Set iteration inside a determinism sink: hash-order leaks
        # into the output.
        root = _write_tree(tmp_path, {
            "pipeline/fp.py": """
                # repro: contract determinism-sink
                def digest(keys):
                    out = []
                    for key in set(keys):
                        out.append(key)
                    return out
            """,
        })
        findings = _flow_lint(root)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "determinism-taint"
        assert f.file.endswith("pipeline/fp.py")
        assert f.line == 5  # the iterated set() expression
        assert "pipeline/fp.py::digest" in f.message

    def test_dual_path_drift(self, tmp_path):
        # A batch entry point with no scalar oracle to diff against.
        root = _write_tree(tmp_path, {
            "core/codec.py": """
                class Codec:
                    def decompress_blocks(self, payloads):
                        return [bytes(payload) for payload in payloads]
            """,
        })
        findings = _flow_lint(root)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "dual-path-drift"
        assert f.file.endswith("core/codec.py")
        assert f.line == 3  # the def line
        assert "no scalar oracle" in f.message


class TestFlowFixtureRepairs:
    def test_guarded_leak_is_clean(self, tmp_path):
        root = _write_tree(tmp_path, {
            "core/dec.py": """
                from repro.resilience.errors import decode_guard

                # repro: contract decode-entry
                def decode(data):
                    with decode_guard("dec.decode"):
                        return _pick(data, 0)


                def _pick(data, i):
                    if i >= len(data):
                        raise IndexError("index out of range")
                    return data[i]
            """,
        })
        assert _flow_lint(root) == []

    def test_consuming_loop_is_clean(self, tmp_path):
        root = _write_tree(tmp_path, {
            "core/spin.py": """
                # repro: contract decode-entry
                def decode(items):
                    while items:
                        items.pop()
                    return items
            """,
        })
        assert _flow_lint(root) == []

    def test_sorted_iteration_is_clean(self, tmp_path):
        root = _write_tree(tmp_path, {
            "pipeline/fp.py": """
                # repro: contract determinism-sink
                def digest(keys):
                    out = []
                    for key in sorted(set(keys)):
                        out.append(key)
                    return out
            """,
        })
        assert _flow_lint(root) == []

    def test_batch_with_oracle_is_clean(self, tmp_path):
        root = _write_tree(tmp_path, {
            "core/codec.py": """
                class Codec:
                    def decompress_block(self, payload):
                        return bytes(payload)

                    def decompress_blocks(self, payloads):
                        return [
                            self.decompress_block(p) for p in payloads
                        ]
            """,
        })
        assert _flow_lint(root) == []

    def test_noqa_suppresses_flow_finding(self, tmp_path):
        root = _write_tree(tmp_path, {
            "core/dec.py": """
                # repro: contract decode-entry
                def decode(data):
                    raise IndexError("x")  # repro: noqa exception-leak
            """,
        })
        assert _flow_lint(root) == []


class TestContractAnnotations:
    def test_unknown_contract_name_flagged(self, tmp_path):
        root = _write_tree(tmp_path, {
            "core/x.py": """
                # repro: contract decode-gateway
                def decode(data):
                    return data
            """,
        })
        findings = _flow_lint(root)
        assert [f.rule for f in findings] == ["contract-annotation"]
        assert findings[0].line == 2
        assert "decode-gateway" in findings[0].message

    def test_trailing_annotation_on_def_line(self, tmp_path):
        root = _write_tree(tmp_path, {
            "core/x.py": """
                def decode(data):  # repro: contract decode-entry
                    raise KeyError("boom")
            """,
        })
        findings = _flow_lint(root)
        assert [f.rule for f in findings] == ["exception-leak"]

    def test_wire_derived_bound_needs_budget_check(self, tmp_path):
        root = _write_tree(tmp_path, {
            "core/x.py": """
                # repro: contract decode-entry
                def decode(reader):
                    count = reader.u16()
                    total = 0
                    for _ in range(count):
                        total += reader.u8()
                    return total
            """,
        })
        findings = _flow_lint(root)
        assert [f.rule for f in findings] == ["loop-progress"]
        assert "'count'" in findings[0].message
        assert findings[0].line == 6  # the for statement

    def test_validated_wire_bound_is_clean(self, tmp_path):
        root = _write_tree(tmp_path, {
            "core/x.py": """
                from repro.resilience.errors import CorruptedStreamError

                # repro: contract decode-entry
                def decode(reader):
                    count = reader.u16()
                    if count > 4096:
                        raise CorruptedStreamError("count over budget")
                    total = 0
                    for _ in range(count):
                        total += reader.u8()
                    return total
            """,
        })
        assert _flow_lint(root) == []


# ---------------------------------------------------------------------------
# Call-graph unit coverage: cycles, dispatch tiers, dunder fallback.
# ---------------------------------------------------------------------------


class TestCallGraph:
    def test_cycle_reachability_terminates(self, tmp_path):
        graph = _graph(tmp_path, {
            "core/a.py": """
                def ping(n):
                    return pong(n - 1)


                def pong(n):
                    return ping(n - 1)
            """,
        })
        reachable = graph.reachable(["core/a.py::ping"])
        assert reachable == {"core/a.py::ping", "core/a.py::pong"}

    def test_lexical_resolution_is_precise(self, tmp_path):
        graph = _graph(tmp_path, {
            "core/a.py": """
                def helper(x):
                    return x


                def entry(x):
                    return helper(x)
            """,
        })
        (site,) = graph.sites("core/a.py::entry")
        assert site.resolved == ("core/a.py::helper",)
        assert site.fallback is False

    def test_import_directed_resolution_is_precise(self, tmp_path):
        graph = _graph(tmp_path, {
            "core/helper.py": """
                def unwrap(data):
                    return data
            """,
            "core/entry.py": """
                from repro.core import helper


                def decode(data):
                    return helper.unwrap(data)
            """,
        })
        (site,) = graph.sites("core/entry.py::decode")
        assert site.resolved == ("core/helper.py::unwrap",)
        assert site.fallback is False

    def test_dynamic_dispatch_falls_back_to_name_match(self, tmp_path):
        # codec is a statically-unknown object: the call must link to
        # every project function of that name, flagged as a fallback.
        graph = _graph(tmp_path, {
            "core/m1.py": """
                def decompress_block(p):
                    return p
            """,
            "core/m2.py": """
                def decompress_block(p):
                    return bytes(p)
            """,
            "core/use.py": """
                def run(codec, p):
                    return codec.decompress_block(p)
            """,
        })
        (site,) = graph.sites("core/use.py::run")
        assert set(site.resolved) == {
            "core/m1.py::decompress_block",
            "core/m2.py::decompress_block",
        }
        assert site.fallback is True

    def test_dunder_names_never_fall_back(self, tmp_path):
        # super().__init__() must not link every constructor in the
        # project into one reachability blob.
        graph = _graph(tmp_path, {
            "core/base.py": """
                class Base:
                    def __init__(self):
                        self.x = 1


                class Child(Base):
                    def __init__(self):
                        super().__init__()
            """,
        })
        init_sites = [
            s
            for s in graph.sites("core/base.py::Child.__init__")
            if s.callee_name == "__init__"
        ]
        assert len(init_sites) == 1
        assert init_sites[0].resolved == ()

    def test_self_method_resolution(self, tmp_path):
        graph = _graph(tmp_path, {
            "core/c.py": """
                class Codec:
                    def step(self, x):
                        return x

                    def run(self, x):
                        return self.step(x)
            """,
        })
        (site,) = graph.sites("core/c.py::Codec.run")
        assert site.resolved == ("core/c.py::Codec.step",)
        assert site.fallback is False

    def test_external_module_calls_resolve_to_nothing(self, tmp_path):
        graph = _graph(tmp_path, {
            "core/x.py": """
                import struct


                def parse(data):
                    return struct.unpack("<I", data)
            """,
        })
        (site,) = graph.sites("core/x.py::parse")
        assert site.resolved == ()
        assert site.fallback is False


# ---------------------------------------------------------------------------
# Baseline machinery.
# ---------------------------------------------------------------------------


def _finding(rule="exception-leak", file="src/repro/a.py", line=7,
             message="boom"):
    return Finding(rule, SEVERITY_ERROR, file, line, message)


class TestBaseline:
    def test_write_load_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([_finding(), _finding(message="other")], path)
        entries = load_baseline(path)
        assert len(entries) == 2
        assert {e["message"] for e in entries} == {"boom", "other"}

    def test_apply_subtracts_line_insensitively(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([_finding(line=7)], path)
        # Same (rule, file, message) at a different line still matches:
        # edits above a baselined site must not resurrect it.
        kept, matched, stale = apply_baseline(
            [_finding(line=99)], load_baseline(path)
        )
        assert kept == []
        assert matched == 1
        assert stale == []

    def test_new_finding_survives_subtraction(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([_finding()], path)
        fresh = _finding(message="newly introduced")
        kept, matched, stale = apply_baseline(
            [_finding(), fresh], load_baseline(path)
        )
        assert kept == [fresh]
        assert matched == 1

    def test_stale_entries_reported(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline([_finding(), _finding(message="fixed since")], path)
        kept, matched, stale = apply_baseline(
            [_finding()], load_baseline(path)
        )
        assert kept == []
        assert matched == 1
        assert [e["message"] for e in stale] == ["fixed since"]

    def test_multiset_semantics(self, tmp_path):
        # Two identical findings, one baseline entry: one is new.
        path = tmp_path / "baseline.json"
        write_baseline([_finding()], path)
        kept, matched, _ = apply_baseline(
            [_finding(), _finding()], load_baseline(path)
        )
        assert matched == 1
        assert len(kept) == 1

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "findings": []}')
        with pytest.raises(ValueError, match="version"):
            load_baseline(path)

    def test_load_rejects_malformed_entry(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(
            '{"version": 1, "findings": [{"rule": "x"}]}'
        )
        with pytest.raises(ValueError, match="malformed"):
            load_baseline(path)

    def test_baseline_key_ignores_line_and_severity(self):
        assert baseline_key(_finding(line=1)) == baseline_key(
            _finding(line=500)
        )


# ---------------------------------------------------------------------------
# SARIF rendering.
# ---------------------------------------------------------------------------


class TestSarif:
    def test_document_shape(self):
        doc = to_sarif([_finding()])
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-check"
        (result,) = run["results"]
        assert result["ruleId"] == "exception-leak"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/a.py"
        assert location["region"]["startLine"] == 7

    def test_rules_deduplicated_and_sorted(self):
        doc = to_sarif([
            _finding(rule="loop-progress"),
            _finding(rule="exception-leak"),
            _finding(rule="loop-progress"),
        ])
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        assert [r["id"] for r in rules] == [
            "exception-leak", "loop-progress",
        ]

    def test_empty_findings_make_valid_document(self):
        doc = to_sarif([])
        assert doc["runs"][0]["results"] == []
        assert doc["runs"][0]["tool"]["driver"]["rules"] == []


# ---------------------------------------------------------------------------
# Performance: the whole-program pass must stay cheap enough for CI's
# 30-second guard with wide margin.
# ---------------------------------------------------------------------------


class TestFlowPerformance:
    def test_flow_rules_on_real_tree_are_fast(self):
        start = time.monotonic()
        run_lint(flow_rules())
        elapsed = time.monotonic() - start
        assert elapsed < 15.0, f"flow analyses took {elapsed:.1f}s"
