"""Tests for the static verifier: broken fixtures must each trip exactly
one check, and the repository at HEAD must verify clean."""

import json
import textwrap

import numpy as np
import pytest

from repro.cli import main
from repro.core.sadc.entry import DictEntry, Dictionary
from repro.core.samc.model import SamcModel
from repro.entropy.huffman import (
    HuffmanCode,
    build_code,
    find_prefix_violation,
    kraft_numerator,
    verify_code,
)
from repro.verify import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    exit_status,
    run_all_checks,
    sort_findings,
)
from repro.verify.codec_checks import (
    check_field_layout,
    check_field_layouts,
    check_huffman_code,
    check_mips_dictionary,
    check_samc_model,
)
from repro.verify.lint import run_lint
from repro.verify.rules import default_rules


# ---------------------------------------------------------------------------
# The four deliberately-broken fixtures from the issue: each must produce
# exactly one finding, with the right rule id.
# ---------------------------------------------------------------------------


class TestBrokenFixtures:
    def test_non_prefix_free_huffman(self):
        # "0" is a proper prefix of "01"; Kraft sum is exactly 1, so only
        # the prefix check may fire.
        code = HuffmanCode(
            lengths={0: 1, 1: 2, 2: 2},
            codewords={0: 0b0, 1: 0b01, 2: 0b11},
        )
        findings = check_huffman_code(code, origin="fixture")
        assert len(findings) == 1
        assert findings[0].rule == "huffman-prefix"
        assert findings[0].severity == SEVERITY_ERROR

    def test_ambiguous_sadc_dictionary(self):
        # Two identical entries: a matched group has two encodings, so
        # the compressed index stream is no longer uniquely decodable.
        dictionary = Dictionary()
        dictionary.add(DictEntry(opcodes=(0,)))
        dictionary.entries.append(DictEntry(opcodes=(0,)))
        findings = check_mips_dictionary(dictionary, origin="fixture")
        assert len(findings) == 1
        assert findings[0].rule == "sadc-ambiguous"

    def test_samc_model_with_unreachable_replicas(self):
        # Two connection bits after a 1-bit stream: stream 1 stores four
        # tree replicas, but its context is one bit wide.
        streams = [(0,), (1, 2)]
        tables = [np.full((4, (1 << len(s)) - 1), 1 << 15) for s in streams]
        model = SamcModel(3, streams, 2, tables)
        findings = check_samc_model(model, origin="fixture")
        assert len(findings) == 1
        assert findings[0].rule == "samc-unreachable"
        assert "stream 1 stores 4 tree replicas" in findings[0].message

    def test_overlapping_field_layout(self):
        # Fields (0,5) and (4,4) both claim bit 4.
        findings = check_field_layout(
            "bad", (("a", 0, 5), ("b", 4, 4)), 8, file="fixture.py"
        )
        assert len(findings) == 1
        assert findings[0].rule == "field-tiling"
        assert "overlap" in findings[0].message


class TestBrokenFixturesGateTheCli:
    def test_fixture_findings_fail_strict(self):
        code = HuffmanCode(
            lengths={0: 1, 1: 2, 2: 2},
            codewords={0: 0b0, 1: 0b01, 2: 0b11},
        )
        findings = check_huffman_code(code, origin="fixture")
        assert exit_status(findings, strict=True) == 1
        assert exit_status(findings, strict=False) == 1  # errors always fail

    def test_warnings_only_fail_under_strict(self):
        # An incomplete (but prefix-free) code is a warning: decodable,
        # just wasteful.
        code = HuffmanCode(lengths={0: 2, 1: 2}, codewords={0: 0, 1: 1})
        findings = check_huffman_code(code, origin="fixture")
        assert [f.severity for f in findings] == [SEVERITY_WARNING]
        assert exit_status(findings, strict=False) == 0
        assert exit_status(findings, strict=True) == 1


# ---------------------------------------------------------------------------
# The repository at HEAD verifies clean.
# ---------------------------------------------------------------------------


class TestCleanRepo:
    def test_run_all_checks_is_clean(self):
        assert run_all_checks(artifact_scale=0.05) == []

    def test_declared_layouts_tile_their_words(self):
        assert check_field_layouts() == []

    def test_cli_strict_passes(self, capsys):
        assert main(["check", "--strict", "--scale", "0.05"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_cli_json_output(self, capsys):
        assert main(["check", "--format", "json", "--scale", "0.05"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"findings": [], "strict": False, "status": 0}


# ---------------------------------------------------------------------------
# Huffman invariant primitives and construction-time verification.
# ---------------------------------------------------------------------------


class TestHuffmanPrimitives:
    def test_kraft_numerator_complete(self):
        assert kraft_numerator({0: 1, 1: 2, 2: 2}) == 1 << 32

    def test_kraft_numerator_incomplete(self):
        assert kraft_numerator({0: 2, 1: 2}) < 1 << 32

    def test_find_prefix_violation_clean(self):
        code = build_code({0: 5, 1: 3, 2: 1, 3: 1})
        assert find_prefix_violation(code.lengths, code.codewords) is None

    def test_verify_code_raises_on_prefix_collision(self):
        with pytest.raises(ValueError, match="prefix"):
            verify_code({0: 1, 1: 2}, {0: 0b0, 1: 0b01})

    def test_construction_check_can_be_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "0")
        # build_code only *verifies* under the flag; output is identical.
        code = build_code({i: 1 for i in range(7)})
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert build_code({i: 1 for i in range(7)}) == code


# ---------------------------------------------------------------------------
# SADC coverage: greedy longest-match parsing needs a single-entry
# fallback for every opcode the dictionary mentions.
# ---------------------------------------------------------------------------


class TestSadcCoverage:
    def test_pair_without_single_fallback(self):
        dictionary = Dictionary()
        dictionary.add(DictEntry(opcodes=(0,)))
        dictionary.add(DictEntry(opcodes=(0, 1)))  # mentions 1, no (1,)
        findings = check_mips_dictionary(dictionary, origin="fixture")
        assert [f.rule for f in findings] == ["sadc-coverage"]

    def test_complete_dictionary_is_clean(self):
        dictionary = Dictionary()
        dictionary.add(DictEntry(opcodes=(0,)))
        dictionary.add(DictEntry(opcodes=(1,)))
        dictionary.add(DictEntry(opcodes=(0, 1)))
        assert check_mips_dictionary(dictionary, origin="fixture") == []


# ---------------------------------------------------------------------------
# The AST lint engine, exercised on synthetic source trees.
# ---------------------------------------------------------------------------


def _write_tree(root, files):
    for relpath, source in files.items():
        path = root / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(root)


def _lint(root):
    return run_lint(default_rules(), root=root)


class TestLintRules:
    def test_float_in_hot_path_flagged(self, tmp_path):
        root = _write_tree(tmp_path, {
            "entropy/arith.py": """
                def midpoint(low, high):
                    return (low + high) / 2
            """,
        })
        findings = _lint(root)
        assert [f.rule for f in findings] == ["no-float-hotpath"]
        assert findings[0].line == 3  # dedented source keeps a leading blank

    def test_quantize_functions_are_exempt(self, tmp_path):
        root = _write_tree(tmp_path, {
            "entropy/arith.py": """
                def quantize_probability(p0):
                    return int(p0 * 65536.0)
            """,
        })
        assert _lint(root) == []

    def test_float_outside_scoped_paths_ignored(self, tmp_path):
        root = _write_tree(tmp_path, {
            "analysis/tables.py": "RATIO = 0.5 / 2\n",
        })
        assert _lint(root) == []

    def test_set_iteration_in_fingerprint_flagged(self, tmp_path):
        root = _write_tree(tmp_path, {
            "pipeline/fingerprint.py": """
                def digest(keys):
                    return [k for k in set(keys)]
            """,
        })
        assert [f.rule for f in _lint(root)] == ["unordered-iteration"]

    def test_sorted_values_iteration_is_clean(self, tmp_path):
        root = _write_tree(tmp_path, {
            "pipeline/fingerprint.py": """
                def digest(mapping):
                    return [v for v in sorted(mapping.values())]
            """,
        })
        assert _lint(root) == []

    def test_unseeded_random_in_workloads_flagged(self, tmp_path):
        root = _write_tree(tmp_path, {
            "workloads/gen.py": """
                import random

                def pick():
                    return random.randint(0, 7)
            """,
        })
        assert [f.rule for f in _lint(root)] == ["unseeded-random"]

    def test_seeded_random_instance_is_clean(self, tmp_path):
        root = _write_tree(tmp_path, {
            "workloads/gen.py": """
                import random

                def pick(seed):
                    return random.Random(seed).randint(0, 7)
            """,
        })
        assert _lint(root) == []

    def test_noqa_suppresses_named_rule(self, tmp_path):
        root = _write_tree(tmp_path, {
            "workloads/gen.py": """
                import random

                def pick():
                    return random.randint(0, 7)  # repro: noqa unseeded-random
            """,
        })
        assert _lint(root) == []

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        root = _write_tree(tmp_path, {
            "workloads/gen.py": """
                import random

                def pick():
                    return random.randint(0, 7)  # repro: noqa no-float-hotpath
            """,
        })
        assert [f.rule for f in _lint(root)] == ["unseeded-random"]


class TestNoWallclockRule:
    def test_direct_call_flagged(self, tmp_path):
        root = _write_tree(tmp_path, {
            "pipeline/executor.py": """
                import time

                def run():
                    return time.perf_counter()
            """,
        })
        findings = _lint(root)
        assert [f.rule for f in findings] == ["no-wallclock-in-codec"]
        assert "time.perf_counter()" in findings[0].message

    def test_from_import_flagged(self, tmp_path):
        root = _write_tree(tmp_path, {
            "core/codec.py": """
                from time import perf_counter, time_ns
            """,
        })
        findings = _lint(root)
        assert [f.rule for f in findings] == ["no-wallclock-in-codec"]
        assert "perf_counter" in findings[0].message

    def test_obs_layer_exempt(self, tmp_path):
        root = _write_tree(tmp_path, {
            "obs/clock.py": """
                import time

                def monotonic_ns():
                    return time.perf_counter_ns()
            """,
        })
        assert _lint(root) == []

    def test_non_clock_time_usage_ignored(self, tmp_path):
        root = _write_tree(tmp_path, {
            "core/misc.py": """
                import time

                def idle():
                    time.sleep(0)
            """,
        })
        assert _lint(root) == []

    def test_noqa_suppresses(self, tmp_path):
        root = _write_tree(tmp_path, {
            "core/misc.py": """
                import time

                def stamp():
                    return time.time()  # repro: noqa no-wallclock-in-codec
            """,
        })
        assert _lint(root) == []


class TestNoAssertInDecoderRule:
    def test_assert_in_decoder_flagged(self, tmp_path):
        root = _write_tree(tmp_path, {
            "baselines/codec.py": """
                def decompress(data):
                    assert len(data) >= 4
                    return data[4:]
            """,
        })
        findings = _lint(root)
        assert [f.rule for f in findings] == ["no-assert-in-decoder"]
        assert "decompress" in findings[0].message
        assert "python -O" in findings[0].message

    def test_assert_in_nested_decode_helper_flagged(self, tmp_path):
        # The enclosing-function chain counts: a helper nested inside a
        # decode function is still validating untrusted input.
        root = _write_tree(tmp_path, {
            "core/codec.py": """
                def decode_block(payload):
                    def step(offset):
                        assert offset < len(payload)
                        return payload[offset]
                    return step(0)
            """,
        })
        assert [f.rule for f in _lint(root)] == ["no-assert-in-decoder"]

    def test_assert_in_encoder_ignored(self, tmp_path):
        # Encoders consume trusted in-process data; asserts are fine.
        root = _write_tree(tmp_path, {
            "baselines/codec.py": """
                def compress(data):
                    assert isinstance(data, bytes)
                    return data
            """,
        })
        assert _lint(root) == []

    def test_assert_outside_codec_paths_ignored(self, tmp_path):
        root = _write_tree(tmp_path, {
            "analysis/tables.py": """
                def decode_row(row):
                    assert row
                    return row
            """,
        })
        assert _lint(root) == []

    def test_noqa_suppresses(self, tmp_path):
        root = _write_tree(tmp_path, {
            "core/codec.py": """
                def decompress(data):
                    assert data  # repro: noqa no-assert-in-decoder
                    return data
            """,
        })
        assert _lint(root) == []


# ---------------------------------------------------------------------------
# Finding plumbing.
# ---------------------------------------------------------------------------


class TestFindingPlumbing:
    def test_sort_puts_errors_first(self):
        warn = Finding("r1", SEVERITY_WARNING, "a.py", 1, "w")
        err = Finding("r2", SEVERITY_ERROR, "z.py", 9, "e")
        assert sort_findings([warn, err]) == [err, warn]

    def test_format_shape(self):
        f = Finding("rule-x", SEVERITY_ERROR, "src/m.py", 7, "boom")
        assert f.format() == "src/m.py:7: error[rule-x] boom"

    def test_to_dict_roundtrips_through_json(self):
        f = Finding("rule-x", SEVERITY_ERROR, "src/m.py", 7, "boom")
        assert json.loads(json.dumps(f.to_dict()))["rule"] == "rule-x"
