"""Tests for the whole-program contract analyses (layer 3).

Four deliberately-broken fixture trees — one per analysis — must each
produce exactly one finding with the right rule id, file, and line;
their repaired counterparts must verify clean.  Plus unit coverage for
the call-graph tiers and SARIF rendering, and a check of the graph
against the functions real decodes run.
"""

import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.baselines.byte_huffman import ByteHuffmanCodec
from repro.baselines.gzipish import gzipish_compress, gzipish_decompress
from repro.baselines.lzw import lzw_compress, lzw_decompress
from repro.baselines.positional_huffman import PositionalHuffmanCodec
from repro.core import (
    MipsSadcCodec,
    SamcCodec,
    X86SadcCodec,
    decompress_image,
    deserialize_image,
)
from repro.core.serialize import serialize_image
from repro.obs import obs_session
from repro.verify import SEVERITY_ERROR, Finding
from repro.verify.callgraph import build_callgraph
from repro.verify.contracts import flow_rules
from repro.verify.flow import (
    CALLER_PRECONDITION_EXCEPTIONS,
    LOW_LEVEL_EXCEPTIONS,
)
from repro.verify.lint import package_root, parse_tree, run_lint
from repro.verify.sarif import to_sarif
from repro.workloads.suite import generate_benchmark


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

    def test_batch_parameter_drift(self, tmp_path):
        # The batch grew a parameter its scalar oracle does not take.
        root = _write_tree(tmp_path, {
            "core/codec.py": """
                class Codec:
                    def decompress_block(self, image, index):
                        return image[index]

                    def decompress_blocks(self, image, indices, strict):
                        return [
                            self.decompress_block(image, i) for i in indices
                        ]
            """,
        })
        findings = _flow_lint(root)
        assert [(f.rule, f.line) for f in findings] == [("dual-path-drift", 6)]
        assert findings[0].message == (
            "batch entry decompress_blocks(image, indices, strict) drifts "
            "from scalar oracle decompress_block(image, index)"
        )

    def test_batch_only_index_error_is_drift(self, tmp_path):
        # Only a caller-precondition raise may go beyond the oracle's
        # surface; a low-level one is drift.
        root = _write_tree(tmp_path, {
            "core/kernel.py": _batch_kernel("IndexError"),
        })
        findings = _flow_lint(root)
        assert [(f.rule, f.line) for f in findings] == [("dual-path-drift", 6)]
        assert "raises IndexError not raised by scalar oracle" in (
            findings[0].message
        )


def _batch_kernel(exc_name):
    """A batch entry whose only extra raise is ``exc_name``."""
    return f"""
        class Model:
            def decode_block(self, payload, word_count):
                return list(payload[:word_count])

            def decode_blocks(self, payloads, word_counts):
                if len(payloads) != len(word_counts):
                    raise {exc_name}("payloads and word_counts must align")
                return [
                    self.decode_block(p, n)
                    for p, n in zip(payloads, word_counts)
                ]
    """


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

    def test_batch_alignment_precondition_is_not_drift(self, tmp_path):
        # The batch checks that its two lists line up, which its scalar
        # oracle cannot get wrong: a caller precondition, as
        # exception-leak already treats an explicit ValueError.
        root = _write_tree(tmp_path, {
            "core/kernel.py": _batch_kernel("ValueError"),
        })
        assert _flow_lint(root) == []

    def test_precondition_raises_are_not_low_level(self):
        assert "ValueError" in CALLER_PRECONDITION_EXCEPTIONS
        assert not CALLER_PRECONDITION_EXCEPTIONS & LOW_LEVEL_EXCEPTIONS

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


    def test_module_level_def_wins_over_nested_namesakes(self, tmp_path):
        graph = _graph(tmp_path, {
            "core/a.py": """
                def helper(x):
                    return x


                def other(x):
                    def helper(y):
                        return y
                    return helper(x)


                def entry(x):
                    return helper(x)
            """,
        })
        (site,) = graph.sites("core/a.py::entry")
        assert site.resolved == ("core/a.py::helper",)
        assert site.fallback is False

    def test_nested_def_resolution_is_precise(self, tmp_path):
        graph = _graph(tmp_path, {
            "core/a.py": """
                def outer(x):
                    def inner(y):
                        return y
                    return inner(x)
            """,
        })
        (site,) = graph.sites("core/a.py::outer")
        assert site.resolved == ("core/a.py::outer.inner",)
        assert site.fallback is False

    def test_imported_class_constructor_resolves_to_init(self, tmp_path):
        graph = _graph(tmp_path, {
            "core/codec.py": """
                class Codec:
                    def __init__(self, size):
                        self.size = size
            """,
            "core/use.py": """
                from repro.core.codec import Codec


                def make(size):
                    return Codec(size)
            """,
        })
        (site,) = graph.sites("core/use.py::make")
        assert site.resolved == ("core/codec.py::Codec.__init__",)
        assert site.fallback is False

    def test_class_through_imported_module_falls_back(self, tmp_path):
        # helper.Codec is no module-level function of helper: the call
        # falls back, by name, to functions called Codec (there are none).
        graph = _graph(tmp_path, {
            "core/helper.py": """
                class Codec:
                    pass
            """,
            "core/use.py": """
                from repro.core import helper


                def make():
                    return helper.Codec()
            """,
        })
        (site,) = graph.sites("core/use.py::make")
        assert site.resolved == ()
        assert site.fallback is True

    def test_external_names_shadow_project_namesakes(self, tmp_path):
        # ``from struct import unpack`` and ``import os.path`` (which
        # binds ``os``) name external code, never the project's own
        # unpack or fspath.
        graph = _graph(tmp_path, {
            "core/y.py": """
                def unpack(fmt, data):
                    return data


                def fspath(path):
                    return path
            """,
            "core/x.py": """
                import os.path
                from struct import unpack


                def parse(fmt, data):
                    return unpack(fmt, data)


                def where(path):
                    return os.fspath(path)
            """,
        })
        for caller in ("core/x.py::parse", "core/x.py::where"):
            (site,) = graph.sites(caller)
            assert (site.resolved, site.fallback) == ((), False)

    def test_redefinition_is_one_function(self, tmp_path):
        graph = _graph(tmp_path, {
            "core/a.py": """
                def pick(data):
                    return data[0]


                def pick(data):
                    return data
            """,
            "core/use.py": """
                def run(x, data):
                    return x.pick(data)
            """,
        })
        assert graph.by_name["pick"] == ("core/a.py::pick",)
        (site,) = graph.sites("core/use.py::run")
        assert site.resolved == ("core/a.py::pick",)

    def test_only_dunder_names_skip_the_fallback(self, tmp_path):
        # A name with a leading double underscore and no trailing one is
        # an ordinary (private) name and falls back like any other.
        graph = _graph(tmp_path, {
            "core/a.py": """
                def __pick(data):
                    return data
            """,
            "core/use.py": """
                def run(x, data):
                    return x.__pick(data)
            """,
        })
        (site,) = graph.sites("core/use.py::run")
        assert site.resolved == ("core/a.py::__pick",)

    def test_bare_name_in_method_resolves_to_its_import(self, tmp_path):
        # A bare name never calls a method: inside Recorder.observe,
        # observe(...) is the imported function, not the method itself.
        graph = _graph(tmp_path, {
            "obs/metrics.py": """
                def observe(cell, value):
                    cell.append(value)
            """,
            "obs/recorder.py": """
                from repro.obs.metrics import observe


                class Recorder:
                    def observe(self, name, value):
                        observe(self.cells[name], value)
            """,
        })
        (site,) = graph.sites("obs/recorder.py::Recorder.observe")
        assert site.resolved == ("obs/metrics.py::observe",)
        assert site.fallback is False


# ---------------------------------------------------------------------------
# The binding filter on tier-3 fallback edges.
# ---------------------------------------------------------------------------


_ENCODER = """
    class Encoder:
        def __init__(self, table):
            self.table = table

        def encode(self, symbols):
            for symbol in symbols:
                if symbol not in self.table:
                    raise KeyError(symbol)
            return [self.table[symbol] for symbol in symbols]
"""


def _encoder_tree(tmp_path, call):
    """A decode entry whose only call is ``call`` on each item."""
    return _write_tree(tmp_path, {
        "entropy/enc.py": _ENCODER,
        "core/dec.py": f"""
            from repro.entropy.enc import Encoder

            # repro: contract decode-entry
            def decode(items, data):
                return [{call} for item in items]
        """,
    })


class TestFallbackBinding:
    def test_zero_argument_call_does_not_reach_encoder(self, tmp_path):
        # item.encode() cannot bind Encoder.encode(self, symbols): the
        # call raises TypeError before the KeyError could run.
        root = _encoder_tree(tmp_path, "item.encode()")
        assert _flow_lint(root) == []
        graph = build_callgraph(parse_tree(Path(root)))
        (site,) = graph.sites("core/dec.py::decode")
        assert site.resolved == ()
        assert site.fallback is True

    def test_one_argument_call_still_reaches_encoder(self, tmp_path):
        root = _encoder_tree(tmp_path, "item.encode(data)")
        findings = _flow_lint(root)
        assert [(f.rule, f.line) for f in findings] == [("exception-leak", 9)]
        assert "raise KeyError in encode" in findings[0].message

    def test_call_through_the_class_binds_self(self, tmp_path):
        root = _encoder_tree(tmp_path, "Encoder.encode(item, data)")
        findings = _flow_lint(root)
        assert [(f.rule, f.line) for f in findings] == [("exception-leak", 9)]

    @pytest.mark.parametrize("params, call, binds", [
        ("self, symbols", "x.f()", False),
        ("self, symbols", "x.f(s)", True),
        ("self, symbols", "x.f(s, t)", False),
        ("self, symbols=None", "x.f()", True),
        ("self, symbols", "x.f(symbols=s)", True),
        ("self, symbols", "x.f(s, symbols=s)", False),
        ("self, symbols", "x.f(self=s)", False),
        ("self, symbols", "x.f(other=s)", False),
        ("self, symbols", "x.f(s, other=t)", False),
        ("self, symbols, **options", "x.f(s, other=s)", True),
        ("self, *symbols", "x.f(s, t, u)", True),
        ("self, *, key", "x.f()", False),
        ("self, *, key", "x.f(key=s)", True),
        ("self, *, key=0", "x.f()", True),
        ("", "x.f()", False),
        ("*args", "x.f()", True),
        ("self, symbols", "x.f(*s)", True),
        ("self, symbols", "x.f(**s)", True),
        ("self, data", "C.f(x, s)", True),
        ("self, data", "mod.C.f(x, s)", True),
        ("self, data", "x.f(x, s)", False),
        ("self, data", "C.f(s)", True),
    ])
    def test_method_binds_as_bound_method(self, tmp_path, params, call, binds):
        graph = _graph(tmp_path, {
            "core/c.py": f"""
                class C:
                    def f({params}):
                        return None
            """,
            "core/use.py": f"""
                def run(x, s, t, u, mod):
                    return {call}
            """,
        })
        (site,) = [
            site for site in graph.sites("core/use.py::run")
            if site.callee_name == "f"
        ]
        assert site.resolved == (("core/c.py::C.f",) if binds else ())

    @pytest.mark.parametrize("params, call, binds", [
        ("symbols", "x.f(s)", True),
        ("symbols", "x.f()", False),
        ("symbols", "x.f(s, other=t)", False),
        ("symbols, extra", "x.f(s)", False),
        ("a, /, b", "x.f(a=s, b=t)", False),
        ("a, /, **kw", "x.f(s, a=t)", True),
        ("a, b=1, /", "x.f(s)", True),
    ])
    def test_function_binds_as_plain_function(
        self, tmp_path, params, call, binds
    ):
        graph = _graph(tmp_path, {
            "core/c.py": f"""
                def f({params}):
                    return None
            """,
            "core/use.py": f"""
                def run(x, s, t):
                    return {call}
            """,
        })
        (site,) = graph.sites("core/use.py::run")
        assert site.resolved == (("core/c.py::f",) if binds else ())

    def test_decorated_candidate_always_stays(self, tmp_path):
        # As a bound method C.f(data) could not take x.f(s); a decorator
        # (here staticmethod) may rewrite the signature, so it stays.
        graph = _graph(tmp_path, {
            "core/c.py": """
                class C:
                    @staticmethod
                    def f(data):
                        return data
            """,
            "core/use.py": """
                def run(x, s):
                    return x.f(s)
            """,
        })
        (site,) = graph.sites("core/use.py::run")
        assert site.resolved == ("core/c.py::C.f",)


# ---------------------------------------------------------------------------
# Reachability against real decodes: every function a decode runs must be
# reachable from its decode entry in the static graph.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def real_graph():
    return build_callgraph(parse_tree(package_root()))


def _real_decodes():
    """(decode entry, decode) pairs on gcc at scale 0.05."""
    mips = generate_benchmark("gcc", "mips", scale=0.05).code
    x86 = generate_benchmark("gcc", "x86", scale=0.05).code
    images = [
        SamcCodec.for_mips().compress(mips),
        MipsSadcCodec().compress(mips),
        X86SadcCodec().compress(x86),
        ByteHuffmanCodec().compress(mips),
    ]
    decodes = []
    for image in images:
        archive = serialize_image(image)
        decodes.append((
            "core/__init__.py::decompress_image",
            lambda image=image: decompress_image(image),
        ))
        decodes.append((
            "core/serialize.py::deserialize_image",
            lambda archive=archive: deserialize_image(archive),
        ))
    positional = PositionalHuffmanCodec()
    positional_image = positional.compress(mips)
    gzipped = gzipish_compress(mips)
    lzw = lzw_compress(mips)
    decodes += [
        (
            "baselines/positional_huffman.py::PositionalHuffmanCodec.decompress",
            lambda: positional.decompress(positional_image),
        ),
        (
            "baselines/gzipish.py::gzipish_decompress",
            lambda: gzipish_decompress(gzipped),
        ),
        ("baselines/lzw.py::lzw_decompress", lambda: lzw_decompress(lzw)),
    ]
    return decodes


def _traced(decode, graph):
    """The graph qualnames of the package functions ``decode()`` runs.

    A code object is matched to its def by file and first line (the
    first decorator's, if any); one the graph does not hold is named
    ``path:line (name)``, which no reachable set contains.
    """
    root = package_root().resolve()
    by_line = {
        (info.relpath, min(
            [d.lineno for d in info.node.decorator_list] + [info.lineno]
        )): qualname
        for qualname, info in graph.functions.items()
    }
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        decode()
    finally:
        sys.setprofile(None)
    traced = set()
    for code in codes:
        path = Path(code.co_filename).resolve()
        if root not in path.parents or code.co_name.startswith("<"):
            continue  # outside the package, or a lambda/comprehension
        relpath = path.relative_to(root).as_posix()
        line = code.co_firstlineno
        traced.add(by_line.get(
            (relpath, line), f"{relpath}:{line} ({code.co_name})"
        ))
    return traced


def _implicitly_called(info):
    """Dunder methods and properties: Python calls them without a call
    expression naming them, so the graph has no edge to them."""
    if info.name.startswith("__") and info.name.endswith("__"):
        return True
    return any(
        getattr(d, "id", None) == "property"
        or getattr(d, "attr", None) == "setter"
        for d in info.node.decorator_list
    )


@pytest.mark.parametrize("telemetry", ["off", "on"])
def test_real_decodes_run_only_reachable_functions(real_graph, telemetry):
    for entry, decode in _real_decodes():
        if telemetry == "on":
            with obs_session():
                traced = _traced(decode, real_graph)
        else:
            traced = _traced(decode, real_graph)
        assert entry in traced
        implicit = [
            q for q in traced
            if q in real_graph.functions
            and _implicitly_called(real_graph.functions[q])
        ]
        reachable = real_graph.reachable([entry, *implicit])
        assert traced - reachable == set(), entry


def test_decompress_image_reaches_every_codec_decode_path(real_graph):
    reachable = real_graph.reachable(["core/__init__.py::decompress_image"])
    assert {
        "core/samc/codec.py::SamcCodec.decompress_blocks",
        "fastpath/samc_kernel.py::CompiledSamcModel.decode_block",
        "fastpath/samc_kernel.py::CompiledSamcModel.decode_blocks",
        "core/sadc/mips.py::MipsSadcCodec._decode_words",
        "core/sadc/x86.py::X86SadcCodec.decompress_block",
        "core/sadc/x86_reassemble.py::reassemble_instruction",
        "baselines/byte_huffman.py::ByteHuffmanCodec.decompress_blocks",
        "fastpath/huffman_kernel.py::decode_blocks_fast",
        "entropy/huffman.py::HuffmanDecoder.decode_symbol",
    } <= reachable


# ---------------------------------------------------------------------------
# SARIF rendering.
# ---------------------------------------------------------------------------


def _finding(rule="exception-leak", file="src/repro/a.py", line=7,
             message="boom"):
    return Finding(rule, SEVERITY_ERROR, file, line, message)


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
