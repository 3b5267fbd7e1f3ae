"""Repo-specific lint rules for the :mod:`repro.verify.lint` engine.

Each rule encodes a correctness contract of this codebase:

``no-float-hotpath``
    Bit-exact coder paths (``entropy/arith.py``, ``fastpath/``,
    ``bitstream/io.py``) must use pure integer arithmetic — a stray
    float or true division silently changes compressed bits across
    platforms.  Functions named ``quantize_*`` are exempt: quantisation
    is the one sanctioned float→int boundary.

``unordered-iteration``
    Fingerprint and serialisation code must be deterministic; iterating
    a set (or unsorted ``dict.values()``) makes cache keys and archive
    bytes depend on hash ordering.

``unseeded-random``
    Workload generators must draw from an explicit ``random.Random(seed)``
    (or seeded numpy generator) so benchmarks are reproducible.

``no-wallclock-in-codec``
    Wall-clock reads belong to the observability layer.  Outside
    ``obs/``, code must go through :mod:`repro.obs.clock` (or a span)
    instead of calling ``time.time()`` / ``time.perf_counter()`` etc.
    directly — one sanctioned clock boundary keeps codec output a pure
    function of its inputs and makes timing swappable in tests.

``no-assert-in-decoder``
    Decode paths validate *untrusted* input, and ``assert`` disappears
    under ``python -O`` — a decoder whose bounds checks are asserts is
    hardened only in debug builds.  Inside any decode-flavoured function
    in a codec path, input validation must raise
    ``CorruptedStreamError`` (or run under ``decode_guard``), never use
    a bare ``assert``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.verify import SEVERITY_ERROR, Finding
from repro.verify.lint import FileRule, ParsedModule


def _function_stack(tree: ast.Module) -> Dict[ast.AST, Tuple[str, ...]]:
    """Map every node to the chain of enclosing function names."""
    stack: Dict[ast.AST, Tuple[str, ...]] = {}

    def visit(node: ast.AST, chain: Tuple[str, ...]) -> None:
        stack[node] = chain
        child_chain = chain
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child_chain = chain + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, child_chain)

    visit(tree, ())
    return stack


class NoFloatHotpath(FileRule):
    """Flag float constants and true division in bit-exact coder paths."""

    rule_id = "no-float-hotpath"
    severity = SEVERITY_ERROR
    description = (
        "float arithmetic or `/` in a bit-exact hot path "
        "(quantize_* functions are exempt)"
    )
    paths = ("entropy/arith.py", "fastpath/", "bitstream/io.py")

    def check(self, module: ParsedModule) -> List[Finding]:
        stack = _function_stack(module.tree)
        findings: List[Finding] = []

        def exempt(node: ast.AST) -> bool:
            return any(name.startswith("quantize_") for name in stack[node])

        for node in ast.walk(module.tree):
            if exempt(node):
                continue
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Div
            ):
                findings.append(self._finding(module, node, "true division `/`"))
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                findings.append(
                    self._finding(module, node, f"float constant {node.value!r}")
                )
        return findings

    def _finding(
        self, module: ParsedModule, node: ast.AST, what: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            file=module.display,
            line=getattr(node, "lineno", 1),
            message=f"{what} in bit-exact hot path; use integer arithmetic",
        )


class UnorderedIteration(FileRule):
    """Flag hash-order-dependent iteration in fingerprint/serialize code."""

    rule_id = "unordered-iteration"
    severity = SEVERITY_ERROR
    description = (
        "iteration over a set or unsorted dict.values() in a "
        "determinism-critical path"
    )
    paths = ("pipeline/fingerprint.py", "core/serialize.py")

    def check(self, module: ParsedModule) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            iters: List[ast.expr] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                reason = self._unordered(it)
                if reason is not None:
                    findings.append(Finding(
                        rule=self.rule_id,
                        severity=self.severity,
                        file=module.display,
                        line=it.lineno,
                        message=(
                            f"iterating {reason} makes output depend on hash "
                            "order; sort or use an ordered container"
                        ),
                    ))
        return findings

    @staticmethod
    def _unordered(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"{func.id}()"
            if isinstance(func, ast.Attribute) and func.attr == "values":
                return "dict.values() without sorted()"
        return None


class UnseededRandom(FileRule):
    """Flag module-level random draws in workload generators."""

    rule_id = "unseeded-random"
    severity = SEVERITY_ERROR
    description = "unseeded module-level randomness in a workload generator"
    paths = ("workloads/",)

    _NP_OK = ("default_rng", "RandomState", "Generator", "SeedSequence")

    def check(self, module: ParsedModule) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            owner = func.value
            if isinstance(owner, ast.Name) and owner.id == "random":
                if func.attr != "Random":
                    findings.append(self._finding(module, node, f"random.{func.attr}"))
            elif (
                isinstance(owner, ast.Attribute)
                and owner.attr == "random"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in ("np", "numpy")
                and func.attr not in self._NP_OK
            ):
                findings.append(
                    self._finding(module, node, f"np.random.{func.attr}")
                )
        return findings

    def _finding(
        self, module: ParsedModule, node: ast.AST, call: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            file=module.display,
            line=getattr(node, "lineno", 1),
            message=(
                f"{call}() draws from shared global state; construct a "
                "seeded random.Random instead"
            ),
        )


class NoWallclockInCodec(FileRule):
    """Flag direct wall-clock reads outside the obs layer."""

    rule_id = "no-wallclock-in-codec"
    severity = SEVERITY_ERROR
    description = (
        "direct time.time()/perf_counter()-style call outside obs/; "
        "use repro.obs.clock"
    )

    #: The sanctioned clock boundary.
    _EXEMPT = ("obs/",)
    _CLOCK_NAMES = frozenset({
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    })

    def applies_to(self, relpath: str) -> bool:
        return not relpath.startswith(self._EXEMPT)

    def check(self, module: ParsedModule) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    clocked = [
                        alias.name
                        for alias in node.names
                        if alias.name in self._CLOCK_NAMES
                    ]
                    if clocked:
                        findings.append(self._finding(
                            module, node,
                            f"from time import {', '.join(clocked)}",
                        ))
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in self._CLOCK_NAMES
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                ):
                    findings.append(
                        self._finding(module, node, f"time.{func.attr}()")
                    )
        return findings

    def _finding(
        self, module: ParsedModule, node: ast.AST, what: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            severity=self.severity,
            file=module.display,
            line=getattr(node, "lineno", 1),
            message=(
                f"{what} reads the wall clock outside obs/; route timing "
                "through repro.obs.clock (or a recorder span)"
            ),
        )


class NoAssertInDecoder(FileRule):
    """Flag ``assert`` inside decode-flavoured functions in codec paths.

    ``assert`` is stripped under ``python -O``, so a decoder that guards
    untrusted input with asserts silently loses its hardening in
    optimised builds.  Raise ``CorruptedStreamError`` instead.
    """

    rule_id = "no-assert-in-decoder"
    severity = SEVERITY_ERROR
    description = (
        "bare `assert` inside a decoder; stripped under python -O — "
        "raise CorruptedStreamError instead"
    )
    paths = (
        "core/",
        "baselines/",
        "entropy/",
        "fastpath/",
        "bitstream/",
        "resilience/",
    )

    #: A function is a decoder when its name contains one of these.
    _DECODE_VERBS = (
        "decode",
        "decompress",
        "deserialize",
        "unwrap",
        "detokenize",
        "reassemble",
    )

    def check(self, module: ParsedModule) -> List[Finding]:
        stack = _function_stack(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assert):
                continue
            chain = stack.get(node, ())
            if not any(
                verb in name for name in chain for verb in self._DECODE_VERBS
            ):
                continue
            findings.append(Finding(
                rule=self.rule_id,
                severity=self.severity,
                file=module.display,
                line=node.lineno,
                message=(
                    f"assert inside decoder {chain[-1]}() is stripped under "
                    "python -O; raise CorruptedStreamError (or use "
                    "decode_guard) for input validation"
                ),
            ))
        return findings


def default_rules() -> List[object]:
    """The rule set ``python -m repro check`` runs: the token-level
    rules, then the whole-program contract analyses."""
    from repro.verify.contracts import flow_rules

    return [
        NoFloatHotpath(),
        UnorderedIteration(),
        UnseededRandom(),
        NoWallclockInCodec(),
        NoAssertInDecoder(),
        *flow_rules(),
    ]
