"""Whole-program contract analyses over the project call graph.

Layer 3 of ``repro check``: four interprocedural analyses that compose
the per-function dataflow facts from :mod:`repro.verify.flow` over the
call graph from :mod:`repro.verify.callgraph`.

Analyses are *configured in the source tree itself* with contract
annotations — a comment on (or directly above) a ``def``::

    def deserialize_image(data):  # repro: contract decode-entry
        ...

* ``decode-entry`` marks a function that receives untrusted wire data.
  Everything reachable from it is checked by the **exception-leak**
  analysis (no low-level raise may escape without ``decode_guard`` /
  ``CorruptedStreamError``) and the **loop-progress** analysis (every
  ``while`` loop needs a progress metric; wire-derived loop bounds need
  a dominating budget check).
* ``determinism-sink`` marks a function whose output must be
  bit-reproducible (fingerprints, serialisation, telemetry merging).
  The **determinism-taint** analysis reports nondeterminism sources
  (``os.environ``, wall clock, unordered iteration, unseeded RNG)
  anywhere in the sink's precisely-resolved call closure.
* The **dual-path** analysis needs no annotation: it pairs every
  ``*_blocks`` batch entry point with its scalar oracle by naming
  convention and diffs their surfaces.

Soundness/precision tradeoffs, in one place:

* Reachability over-approximates (dynamic-dispatch fallback edges), so
  exception-leak and loop-progress cannot *miss* a decode-reachable
  function — they may visit too many, which only ever surfaces real
  code.
* The taint sink closure under-approximates on purpose: it follows
  only precisely-resolved edges (same-module, ``self``, imports), not
  name-match fallbacks, because a false "your fingerprint is
  nondeterministic" on an unrelated same-named helper costs more than
  the marginal recall.
* All per-function recognisers are heuristic; anything they cannot
  prove is a finding for a human to fix or to suppress in place with
  ``# repro: noqa <rule> (reason)``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.verify import SEVERITY_ERROR, Finding
from repro.verify.callgraph import (
    CallGraph,
    FunctionInfo,
    build_callgraph,
)
from repro.verify.flow import (
    CALLER_PRECONDITION_EXCEPTIONS,
    RiskyOp,
    analyze_taint,
    collect_safe_exceptions,
    loop_issues,
    protection_map,
    protects_against,
    raised_names,
    risky_ops,
)
from repro.verify.lint import ParsedModule, ProjectRule

CONTRACT_MARKER = "# repro: contract"

CONTRACT_DECODE_ENTRY = "decode-entry"
CONTRACT_DETERMINISM_SINK = "determinism-sink"
KNOWN_CONTRACTS = frozenset({
    CONTRACT_DECODE_ENTRY,
    CONTRACT_DETERMINISM_SINK,
})

#: Module prefixes where loop findings are reported.  Decode
#: reachability (with its fallback edges) can brush against scheduler
#: and server loops whose termination is an operational concern, not a
#: wire-data one; the codec/wire packages are where the contract bites.
LOOP_SCOPES = (
    "core/",
    "baselines/",
    "entropy/",
    "bitstream/",
    "fastpath/",
    "resilience/",
    "service/",
    "isa/",
)

#: Module prefixes scanned for batch dual-path surfaces.
DUAL_PATH_SCOPES = ("core/", "baselines/", "fastpath/", "service/")

#: The blessed clock module: wall-clock reads inside it are the point.
CLOCK_MODULE_RELPATH = "obs/clock.py"

#: Exceptions a batch entry may raise beyond its scalar oracle's
#: surface without drifting: the structured decode error is always
#: legal, NotImplementedError marks an honest capability gap, and a
#: caller-precondition raise checks arguments only the batch takes.
_DUAL_PATH_ALLOWED = (
    frozenset({"CorruptedStreamError", "NotImplementedError"})
    | CALLER_PRECONDITION_EXCEPTIONS
)


def _contract_on_line(line: str) -> Optional[str]:
    """The contract name on a line, '' if the marker has no name."""
    idx = line.find(CONTRACT_MARKER)
    if idx < 0:
        return None
    rest = line[idx + len(CONTRACT_MARKER):].strip()
    if not rest:
        return ""
    return rest.split()[0]


def _function_contracts(
    module: ParsedModule, info: FunctionInfo
) -> List[Tuple[str, int]]:
    """Contract names attached to this def: trailing on the def line,
    or a standalone comment line directly above the def/decorators."""
    node = info.node
    out: List[Tuple[str, int]] = []
    def_line = info.lineno
    if 1 <= def_line <= len(module.lines):
        name = _contract_on_line(module.lines[def_line - 1])
        if name is not None:
            out.append((name, def_line))
    decorators = getattr(node, "decorator_list", [])
    top = min([d.lineno for d in decorators] + [def_line])
    above = top - 1
    if 1 <= above <= len(module.lines):
        line = module.lines[above - 1]
        if line.strip().startswith("#"):
            name = _contract_on_line(line)
            if name is not None:
                out.append((name, above))
    return out


@dataclass
class ProjectModel:
    """Shared analysis state built once per ``run_lint`` invocation."""

    modules: Sequence[ParsedModule]
    graph: CallGraph
    safe_exceptions: FrozenSet[str]
    # contract name -> qualnames carrying it, in deterministic order
    contracts: Dict[str, List[str]] = field(default_factory=dict)
    annotation_findings: List[Finding] = field(default_factory=list)


_MODEL_CACHE: Dict[int, ProjectModel] = {}


def project_model(modules: Sequence[ParsedModule]) -> ProjectModel:
    """Build (or reuse) the call graph + contract index for a tree.

    The four flow rules each receive the same ``modules`` sequence from
    ``run_lint``; keying on its identity lets them share one graph.
    """
    cached = _MODEL_CACHE.get(id(modules))
    if cached is not None and cached.modules is modules:
        return cached

    graph = build_callgraph(modules)
    safe = collect_safe_exceptions([m.tree for m in modules])
    model = ProjectModel(
        modules=modules, graph=graph, safe_exceptions=safe
    )
    by_relpath = {m.relpath: m for m in modules}
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        module = by_relpath.get(info.relpath)
        if module is None:
            continue
        for name, lineno in _function_contracts(module, info):
            if name in KNOWN_CONTRACTS:
                model.contracts.setdefault(name, []).append(qualname)
            else:
                shown = name if name else "<missing name>"
                model.annotation_findings.append(Finding(
                    rule="contract-annotation",
                    severity=SEVERITY_ERROR,
                    file=info.display,
                    line=lineno,
                    message=(
                        f"unknown contract {shown!r}; known contracts: "
                        + ", ".join(sorted(KNOWN_CONTRACTS))
                    ),
                ))
    _MODEL_CACHE.clear()
    _MODEL_CACHE[id(modules)] = model
    return model


class ContractAnnotationRule(ProjectRule):
    """Reject ``# repro: contract`` annotations with unknown names."""

    rule_id = "contract-annotation"
    severity = SEVERITY_ERROR
    description = "contract annotations must use a known contract name"

    def check_project(self, modules: Sequence[ParsedModule]) -> List[Finding]:
        return list(project_model(modules).annotation_findings)


class ExceptionLeakRule(ProjectRule):
    """No low-level raise may escape a decode entry point unguarded.

    For each low-level exception type, a BFS from the ``decode-entry``
    roots follows only call edges *not* protected against that type
    (``decode_guard`` with-blocks and catching ``try`` bodies stop the
    walk).  Any intraprocedurally-unguarded risky operation in a
    function the walk reaches can propagate all the way out.
    """

    rule_id = "exception-leak"
    severity = SEVERITY_ERROR
    description = (
        "low-level exceptions must not escape decode entry points"
    )

    def check_project(self, modules: Sequence[ParsedModule]) -> List[Finding]:
        model = project_model(modules)
        graph = model.graph
        roots = [
            q for q in model.contracts.get(CONTRACT_DECODE_ENTRY, [])
            if q in graph.functions
        ]
        if not roots:
            return []

        ops_cache: Dict[str, List[RiskyOp]] = {}

        def ops_for(qualname: str) -> List[RiskyOp]:
            if qualname not in ops_cache:
                info = graph.functions[qualname]
                ops_cache[qualname] = risky_ops(
                    info.node, model.safe_exceptions
                )
            return ops_cache[qualname]

        pmap_cache: Dict[str, Dict[ast.AST, Tuple[FrozenSet[str], ...]]] = {}

        def pmap_for(qualname: str) -> Dict[ast.AST, Tuple[FrozenSet[str], ...]]:
            if qualname not in pmap_cache:
                pmap_cache[qualname] = protection_map(
                    graph.functions[qualname].node
                )
            return pmap_cache[qualname]

        # The exception types that can actually occur in this tree.
        reachable = graph.reachable(roots)
        exc_types: Set[str] = set()
        for qualname in reachable:
            exc_types.update(
                op.exc_name for op in ops_for(qualname) if not op.guarded
            )

        findings: List[Finding] = []
        for exc_name in sorted(exc_types):
            # BFS along edges that do not protect against exc_name;
            # origin[f] is the witness root f was first reached from.
            origin: Dict[str, str] = {root: root for root in roots}
            frontier = list(roots)
            while frontier:
                current = frontier.pop()
                pmap = pmap_for(current)
                for site in graph.sites(current):
                    stack = pmap.get(site.node, ())
                    if protects_against(stack, exc_name):
                        continue
                    for callee in site.resolved:
                        if callee not in origin:
                            origin[callee] = origin[current]
                            frontier.append(callee)
            for qualname in sorted(origin):
                info = graph.functions[qualname]
                for op in ops_for(qualname):
                    if op.guarded or op.exc_name != exc_name:
                        continue
                    findings.append(Finding(
                        rule=self.rule_id,
                        severity=self.severity,
                        file=info.display,
                        line=op.lineno,
                        message=(
                            f"{op.what} in {info.name} can escape decode "
                            f"entry {origin[qualname]} without passing "
                            "through decode_guard/CorruptedStreamError"
                        ),
                    ))
        return findings


class LoopProgressRule(ProjectRule):
    """Decode-reachable loops need progress metrics and checked bounds."""

    rule_id = "loop-progress"
    severity = SEVERITY_ERROR
    description = (
        "while loops in decode-reachable code must show progress; "
        "wire-derived loop bounds must be budget-checked"
    )

    def check_project(self, modules: Sequence[ParsedModule]) -> List[Finding]:
        model = project_model(modules)
        graph = model.graph
        roots = [
            q for q in model.contracts.get(CONTRACT_DECODE_ENTRY, [])
            if q in graph.functions
        ]
        if not roots:
            return []
        findings: List[Finding] = []
        for qualname in sorted(graph.reachable(roots)):
            info = graph.functions[qualname]
            if not info.relpath.startswith(LOOP_SCOPES):
                continue
            for issue in loop_issues(info.node):
                findings.append(Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    file=info.display,
                    line=issue.lineno,
                    message=(
                        f"in decode-reachable {info.name}: {issue.detail}"
                    ),
                ))
        return findings


class DeterminismTaintRule(ProjectRule):
    """Nondeterminism sources must stay out of determinism sinks.

    The closure of each ``determinism-sink`` root is computed over
    precisely-resolved call edges only; every taint source observed
    lexically inside the closure is a finding.  Wall-clock sources are
    ignored for sinks under ``obs/`` (telemetry merges span *timings*
    as data; its determinism contract is about ordering), and the
    blessed ``obs/clock.py`` module is never analysed.
    """

    rule_id = "determinism-taint"
    severity = SEVERITY_ERROR
    description = (
        "environment, clock, unordered-iteration, and RNG taint must "
        "not reach fingerprint/serialisation/telemetry sinks"
    )

    def check_project(self, modules: Sequence[ParsedModule]) -> List[Finding]:
        model = project_model(modules)
        graph = model.graph
        sinks = [
            q for q in model.contracts.get(CONTRACT_DETERMINISM_SINK, [])
            if q in graph.functions
        ]
        if not sinks:
            return []

        clock_modules = frozenset({CLOCK_MODULE_RELPATH})
        seen: Dict[Tuple[str, int, str], Finding] = {}
        for sink in sinks:
            include_clock = not graph.functions[sink].relpath.startswith(
                "obs/"
            )
            closure = self._precise_closure(graph, sink)
            for qualname in sorted(closure):
                info = graph.functions[qualname]
                if info.relpath == CLOCK_MODULE_RELPATH:
                    continue
                resolved_by_node = {
                    id(site.node): site.resolved
                    for site in graph.sites(qualname)
                    if not site.fallback
                }

                def resolve(call: ast.Call) -> Tuple[str, ...]:
                    return resolved_by_node.get(id(call), ())

                summary = analyze_taint(
                    info.node,
                    resolve,
                    {},
                    clock_modules,
                    include_clock=include_clock,
                )
                for site in summary.sites:
                    key = (info.display, site.lineno, site.kind)
                    if key in seen:
                        continue
                    seen[key] = Finding(
                        rule=self.rule_id,
                        severity=self.severity,
                        file=info.display,
                        line=site.lineno,
                        message=(
                            f"nondeterministic source ({site.what}) in "
                            f"{info.name} is reachable from determinism "
                            f"sink {sink}"
                        ),
                    )
        return list(seen.values())

    @staticmethod
    def _precise_closure(graph: CallGraph, sink: str) -> Set[str]:
        seen: Set[str] = set()
        frontier = [sink]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for site in graph.sites(current):
                if site.fallback:
                    continue
                frontier.extend(
                    c for c in site.resolved if c not in seen
                )
        return seen


class DualPathRule(ProjectRule):
    """Batch entry points must not drift from their scalar oracles.

    Pairing is by naming convention: ``X_blocks`` pairs with ``X_block``
    (or ``X``) in the same class, else the same module.  The diff covers
    existence, parameter names (all but the final, pluralised one), and
    locally-raised exception surfaces with guard conversion applied.
    """

    rule_id = "dual-path-drift"
    severity = SEVERITY_ERROR
    description = "batch entry points must match their scalar oracles"

    def check_project(self, modules: Sequence[ParsedModule]) -> List[Finding]:
        model = project_model(modules)
        graph = model.graph
        findings: List[Finding] = []
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            if not info.relpath.startswith(DUAL_PATH_SCOPES):
                continue
            if info.name.endswith("_blocks") and not info.name.startswith(
                "_"
            ):
                findings.extend(self._check_batch(model, info))
        return findings

    def _check_batch(
        self, model: ProjectModel, info: FunctionInfo
    ) -> List[Finding]:
        graph = model.graph
        base = info.name[: -len("_blocks")]
        scalar = self._find_scalar(
            graph, info, (f"{base}_block", base)
        )
        if scalar is None:
            return [Finding(
                rule=self.rule_id,
                severity=self.severity,
                file=info.display,
                line=info.lineno,
                message=(
                    f"batch entry {info.name} has no scalar oracle "
                    f"({base}_block or {base}) in its class or module"
                ),
            )]
        findings: List[Finding] = []
        batch_params = _param_names(info.node)
        scalar_params = _param_names(scalar.node)
        if not _params_match(batch_params, scalar_params):
            findings.append(Finding(
                rule=self.rule_id,
                severity=self.severity,
                file=info.display,
                line=info.lineno,
                message=(
                    f"batch entry {info.name}({', '.join(batch_params)}) "
                    f"drifts from scalar oracle "
                    f"{scalar.name}({', '.join(scalar_params)})"
                ),
            ))
        batch_raises = raised_names(info.node, model.safe_exceptions)
        scalar_raises = raised_names(scalar.node, model.safe_exceptions)
        extra = batch_raises - scalar_raises - _DUAL_PATH_ALLOWED
        if extra:
            findings.append(Finding(
                rule=self.rule_id,
                severity=self.severity,
                file=info.display,
                line=info.lineno,
                message=(
                    f"batch entry {info.name} raises "
                    f"{', '.join(sorted(extra))} not raised by scalar "
                    f"oracle {scalar.name}"
                ),
            ))
        return findings

    @staticmethod
    def _find_scalar(
        graph: CallGraph,
        info: FunctionInfo,
        candidates: Tuple[str, ...],
    ) -> Optional[FunctionInfo]:
        for name in candidates:
            if info.class_name is not None:
                prefix = info.qualname.rsplit(".", 1)[0]
                qualname = f"{prefix}.{name}"
                found = graph.functions.get(qualname)
                if found is not None:
                    return found
            for qualname in graph.by_name.get(name, ()):
                other = graph.functions[qualname]
                if other.relpath == info.relpath:
                    return other
        return None


def _params_match(batch: List[str], scalar: List[str]) -> bool:
    """Whether a batch signature is a faithful pluralisation.

    Accepted shapes: the batch drops its final (pluralised) parameter
    and matches the oracle exactly or minus *its* final parameter, or
    the two have equal arity and correspond parameter-by-parameter up
    to a trailing ``s``/``es`` (``payloads``/``payload``).
    """
    shared = batch[:-1] if batch else []
    if shared == scalar or shared == scalar[:-1]:
        return True
    if len(batch) != len(scalar):
        return False
    return all(
        b == s or b == f"{s}s" or b == f"{s}es"
        for b, s in zip(batch, scalar)
    )


def _param_names(node: ast.AST) -> List[str]:
    args = getattr(node, "args", None)
    if args is None:
        return []
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def flow_rules() -> List[ProjectRule]:
    """The whole-program contract rules, in reporting order."""
    return [
        ContractAnnotationRule(),
        ExceptionLeakRule(),
        LoopProgressRule(),
        DeterminismTaintRule(),
        DualPathRule(),
    ]


__all__ = [
    "CONTRACT_DECODE_ENTRY",
    "CONTRACT_DETERMINISM_SINK",
    "CONTRACT_MARKER",
    "ContractAnnotationRule",
    "DeterminismTaintRule",
    "DualPathRule",
    "ExceptionLeakRule",
    "KNOWN_CONTRACTS",
    "LoopProgressRule",
    "ProjectModel",
    "flow_rules",
    "project_model",
]
