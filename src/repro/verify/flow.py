"""Flow-sensitive intraprocedural dataflow over Python AST.

This module is the per-function half of the whole-program analyses in
:mod:`repro.verify.contracts`.  It answers four local questions the
interprocedural layer composes over the call graph:

* **Guard regions** — which statements run under ``decode_guard`` (or a
  ``try`` whose handlers catch a given exception type), so a low-level
  raise inside them converts to ``CorruptedStreamError`` instead of
  escaping.
* **Risky operations** — explicit raises of low-level exception types
  (``IndexError``, ``struct.error``, …) and ``struct.unpack*`` calls,
  the leak sites of the exception-leak analysis.  A risky op *dominated
  by a prior length check that raises a safe error* is treated as
  guarded — the ``unwrap_frame`` idiom of validating ``len(data)``
  before ``unpack_from``.
* **Loop progress** — whether a ``while`` loop has a recognizable
  progress metric (a counter written in the body, consumption of the
  object named in the condition, or an exit-or-consume shape), and
  whether a loop bound derived from wire data is dominated by a
  budget/backing-data validation.
* **Determinism taint** — a flow-sensitive walk tracking how
  environment reads, wall-clock calls, unordered-container iteration,
  and unseeded randomness propagate through local assignments into
  returns, so sink functions can be checked for nondeterministic
  inputs.  ``sorted()`` sanitises ordering taint; ``len()`` sanitises
  everything.

All of it is deliberately heuristic: the recognisers accept the
patterns this codebase (and the fixtures) actually use, and everything
they cannot prove is reported for a human to fix or to suppress in
place with ``# repro: noqa <rule> (reason)``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

#: Explicit raises that state a precondition on the *caller's*
#: arguments (misaligned batch lists, an unknown algorithm name), not a
#: wire-data failure.  Exception-leak does not track them (they are
#: absent from LOW_LEVEL_EXCEPTIONS: tracking them floods the analysis
#: with encode-side validation raises), and dual-path-drift lets a batch
#: entry raise them where its scalar oracle does not, since a batch
#: takes arguments, such as parallel lists, whose agreement its oracle
#: has no reason to check.  Implicit wire-triggered ValueErrors
#: (``int()`` on garbage) are a known precision gap, covered by the
#: fuzz driver.
CALLER_PRECONDITION_EXCEPTIONS = frozenset({"ValueError"})

#: Exception types whose escape from a decode entry point breaks the
#: guaranteed-termination contract (the types ``decode_guard``
#: converts, see repro.resilience.errors._GUARDED).  Disjoint from
#: CALLER_PRECONDITION_EXCEPTIONS.
LOW_LEVEL_EXCEPTIONS = frozenset({
    "IndexError",
    "KeyError",
    "EOFError",
    "OverflowError",
    "MemoryError",
    "UnicodeDecodeError",
    "error",  # struct.error raised by name
})

#: Names that catch everything relevant in an ``except`` clause.
_CATCH_ALL = frozenset({"Exception", "BaseException"})

#: Superclasses that also catch a given low-level exception.
#: ``struct.error`` (``error``) derives from ``Exception`` alone, so only
#: the catch-all names catch it.
_EXC_SUPERCLASSES: Dict[str, FrozenSet[str]] = {
    "IndexError": frozenset({"LookupError"}),
    "KeyError": frozenset({"LookupError"}),
    "UnicodeDecodeError": frozenset({"ValueError", "UnicodeError"}),
}

#: Method names that consume input or shrink a worklist — evidence of
#: loop progress when paired with an explicit exit.
CONSUMING_METHODS = frozenset({
    "read",
    "read_bit",
    "read_bits",
    "read_bytes",
    "readexactly",
    "decode_symbol",
    "pop",
    "popleft",
    "next_byte",
    "_next_byte",
    "_take",
    "take",
    "recv",
    "get",
})

#: Call names whose result is a wire-declared quantity (reader field
#: reads); assignments from them make the target a wire-derived bound.
WIRE_READ_CALLS = frozenset({
    "u8",
    "u16",
    "u32",
    "u64",
    "read_bits",
    "unpack",
    "unpack_from",
    "from_bytes",
})

#: Wall-clock call names (mirrors the no-wallclock-in-codec rule).
CLOCK_NAMES = frozenset({
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
})

#: Seeded numpy constructors that do not taint.
_NP_RANDOM_OK = frozenset({"default_rng", "RandomState", "Generator", "SeedSequence"})

TAINT_ENV = "env"
TAINT_CLOCK = "clock"
TAINT_ORDER = "order"
TAINT_RNG = "rng"


# ---------------------------------------------------------------------------
# Guard regions
# ---------------------------------------------------------------------------

#: Marker protection entry meaning "inside a decode_guard with-block".
_DECODE_GUARD = "<decode_guard>"


def _is_decode_guard_item(item: ast.withitem) -> bool:
    call = item.context_expr
    if not isinstance(call, ast.Call):
        return False
    func = call.func
    name = func.id if isinstance(func, ast.Name) else (
        func.attr if isinstance(func, ast.Attribute) else None
    )
    return name == "decode_guard"


def _handler_names(handler: ast.ExceptHandler) -> FrozenSet[str]:
    exc = handler.type
    if exc is None:
        return _CATCH_ALL
    names: Set[str] = set()
    elements = exc.elts if isinstance(exc, ast.Tuple) else [exc]
    for element in elements:
        if isinstance(element, ast.Name):
            names.add(element.id)
        elif isinstance(element, ast.Attribute):
            names.add(element.attr)
    return frozenset(names)


def protection_map(
    func: ast.AST,
) -> Dict[ast.AST, Tuple[FrozenSet[str], ...]]:
    """Map every node under ``func`` to its stack of active protections.

    Each stack entry is a frozenset of exception names caught at that
    level; the special entry ``{_DECODE_GUARD}`` marks a decode_guard
    with-block (which converts every guarded low-level type).
    """
    out: Dict[ast.AST, Tuple[FrozenSet[str], ...]] = {}

    def visit(node: ast.AST, stack: Tuple[FrozenSet[str], ...]) -> None:
        out[node] = stack
        if isinstance(node, ast.Try):
            caught: Set[str] = set()
            for handler in node.handlers:
                caught.update(_handler_names(handler))
            body_stack = stack + (frozenset(caught),)
            for child in node.body:
                visit(child, body_stack)
            # Handlers, else, and finally run outside the body's
            # protection (an exception raised there escapes this try).
            for handler in node.handlers:
                visit(handler, stack)
            for child in node.orelse:
                visit(child, stack)
            for child in node.finalbody:
                visit(child, stack)
            return
        if isinstance(node, ast.With):
            guarded = any(_is_decode_guard_item(item) for item in node.items)
            inner = stack + ((frozenset({_DECODE_GUARD}),) if guarded else ())
            for item in node.items:
                visit(item, stack)
            for child in node.body:
                visit(child, inner)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(func, ())
    return out


def protects_against(
    stack: Tuple[FrozenSet[str], ...], exc_name: str
) -> bool:
    """True when a raise of ``exc_name`` cannot escape this stack."""
    accepted = (
        {exc_name}
        | set(_EXC_SUPERCLASSES.get(exc_name, frozenset()))
        | set(_CATCH_ALL)
    )
    for layer in stack:
        if _DECODE_GUARD in layer:
            return True
        if layer & accepted:
            return True
        # CorruptedStreamError handlers re-raise structured errors; a
        # handler catching it does not stop a *low-level* type.
    return False


# ---------------------------------------------------------------------------
# Risky operations (exception-leak sites)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RiskyOp:
    """One operation that can raise a low-level exception."""

    node: ast.AST
    lineno: int
    exc_name: str
    what: str
    guarded: bool


def _raise_name(node: ast.Raise) -> Optional[str]:
    exc = node.exc
    if exc is None:
        return None  # bare re-raise: propagates whatever is in flight
    target = exc.func if isinstance(exc, ast.Call) else exc
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return None


def _length_check_lines(func: ast.AST, safe_exceptions: FrozenSet[str]) -> List[int]:
    """Lines of ``if …len(…)…: raise <safe>`` backing-data validations."""
    lines: List[int] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.If):
            continue
        mentions_len = any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "len"
            for sub in ast.walk(node.test)
        )
        if not mentions_len:
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Raise):
                name = _raise_name(stmt)
                if name is not None and name in safe_exceptions:
                    lines.append(node.lineno)
                    break
    return lines


def risky_ops(
    func: ast.AST, safe_exceptions: FrozenSet[str]
) -> List[RiskyOp]:
    """Explicit low-level raises and ``struct.unpack*`` calls in ``func``.

    ``safe_exceptions`` is the set of structured-error class names
    (``CorruptedStreamError`` and its project subclasses); raising those
    is the contract, not a leak.  An unpack call lexically *after* a
    length-validation raise of a safe error is treated as guarded.
    """
    protections = protection_map(func)
    checks = _length_check_lines(func, safe_exceptions)
    ops: List[RiskyOp] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Raise):
            name = _raise_name(node)
            if name is None or name in safe_exceptions:
                continue
            if name not in LOW_LEVEL_EXCEPTIONS:
                continue
            guarded = protects_against(protections.get(node, ()), name)
            ops.append(RiskyOp(
                node=node,
                lineno=node.lineno,
                exc_name=name,
                what=f"raise {name}",
                guarded=guarded,
            ))
        elif isinstance(node, ast.Call):
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr in ("unpack", "unpack_from")
            ):
                guarded = protects_against(protections.get(node, ()), "error")
                if not guarded and any(
                    line < node.lineno for line in checks
                ):
                    guarded = True  # dominated by a backing-data check
                ops.append(RiskyOp(
                    node=node,
                    lineno=node.lineno,
                    exc_name="error",
                    what=f"{func_expr.attr}() (struct.error)",
                    guarded=guarded,
                ))
    return ops


def collect_safe_exceptions(trees: Sequence[ast.Module]) -> FrozenSet[str]:
    """``CorruptedStreamError`` plus every project subclass, transitively."""
    safe: Set[str] = {"CorruptedStreamError"}
    bases: Dict[str, Set[str]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                names = set()
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        names.add(base.id)
                    elif isinstance(base, ast.Attribute):
                        names.add(base.attr)
                bases.setdefault(node.name, set()).update(names)
    changed = True
    while changed:
        changed = False
        for name, parents in bases.items():
            if name not in safe and parents & safe:
                safe.add(name)
                changed = True
    return frozenset(safe)


# ---------------------------------------------------------------------------
# Loop progress
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopIssue:
    """One loop finding: no progress metric, or unvalidated wire bound."""

    node: ast.AST
    lineno: int
    kind: str           # "no-progress" | "wire-bound"
    detail: str


def _names_in(node: ast.AST) -> Set[str]:
    return {
        sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)
    }


def _body_nodes(loop: ast.AST) -> List[ast.AST]:
    out: List[ast.AST] = []
    for stmt in getattr(loop, "body", []):
        out.extend(ast.walk(stmt))
    return out


def _assigned_names(nodes: Sequence[ast.AST]) -> Set[str]:
    names: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(
                    t.id for t in ast.walk(target) if isinstance(t, ast.Name)
                )
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


def _method_receivers(nodes: Sequence[ast.AST]) -> Set[str]:
    """Names appearing in the receiver of any method call (dotted too,
    so ``self._models.pop()`` counts as consuming ``self``)."""
    receivers: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receivers.update(
                sub.id
                for sub in ast.walk(node.func.value)
                if isinstance(sub, ast.Name)
            )
    return receivers


def _has_consuming_call(nodes: Sequence[ast.AST]) -> bool:
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in CONSUMING_METHODS:
                return True
    return False


def _has_bounded_counter(loop: ast.AST, body: Sequence[ast.AST]) -> bool:
    counters = {
        node.target.id
        for node in body
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name)
    }
    if not counters:
        return False
    for node in body:
        if isinstance(node, ast.If) and _names_in(node.test) & counters:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Raise, ast.Break, ast.Return)):
                    return True
    return False


def while_has_progress(loop: ast.While) -> bool:
    """True when the loop shows a recognizable progress metric."""
    body = _body_nodes(loop)
    is_constant_true = (
        isinstance(loop.test, ast.Constant) and bool(loop.test.value)
    )
    if not is_constant_true:
        cond_names = _names_in(loop.test)
        if cond_names & _assigned_names(body):
            return True  # counter/remaining-style variable written
        if cond_names & _method_receivers(body):
            return True  # consumes/mutates the object it tests
        for node in body:
            if (
                isinstance(node, ast.Delete)
                and any(
                    isinstance(t, ast.Subscript)
                    and isinstance(t.value, ast.Name)
                    and t.value.id in cond_names
                    for t in node.targets
                )
            ):
                return True
    has_break = any(isinstance(node, ast.Break) for node in body)
    if has_break and _has_consuming_call(body):
        return True  # exit-or-consume: reader exhaustion ends the loop
    if _has_bounded_counter(loop, body):
        return True
    return False


@dataclass
class _BoundState:
    wire: bool = False
    validated: bool = False


def _expr_is_wire_read(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in WIRE_READ_CALLS:
                return True
        elif isinstance(node, ast.Subscript):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Attribute) and sub.attr == "metadata":
                    return True
    return False


def _is_validation_stmt(stmt: ast.AST, var: str) -> bool:
    if isinstance(stmt, ast.If) and var in _names_in(stmt.test):
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.Raise, ast.Return)):
                return True
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name is None:
                continue
            lowered = name.lower()
            if any(k in lowered for k in ("check", "budget", "valid", "clamp")):
                if var in _names_in(node):
                    return True
            if name == "min" and var in _names_in(node):
                return True
    return False


def loop_issues(func: ast.AST) -> List[LoopIssue]:
    """Progress and wire-bound findings for every loop in ``func``.

    The wire-bound pass runs linearly over the function's statements in
    source order (the flow-sensitive part): an assignment from a wire
    read marks its target, a validation statement mentioning the target
    clears it, and a ``while``/``for range()`` loop bounded by a still-
    unvalidated wire variable is a finding.  Only *named* bounds are
    tracked — an inline ``range(reader.u8())`` is bounded by the reader's
    own exhaustion check and stays below any allocation-relevant size.
    """
    issues: List[LoopIssue] = []
    wire_bounds: Dict[str, _BoundState] = {}

    statements: List[ast.stmt] = []

    def flatten(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(child, ast.stmt):
                statements.append(child)
            flatten(child)

    flatten(func)
    statements.sort(key=lambda s: (s.lineno, s.col_offset))

    for stmt in statements:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            target = stmt.targets[0].id
            if _expr_is_wire_read(stmt.value):
                wire_bounds[target] = _BoundState(wire=True)
            elif target in wire_bounds and any(
                name in wire_bounds and wire_bounds[name].wire
                for name in _names_in(stmt.value)
            ):
                pass  # rebinding from another wire var keeps state
            elif target in wire_bounds:
                del wire_bounds[target]  # overwritten with non-wire data
            else:
                derived = _names_in(stmt.value) & {
                    n for n, s in wire_bounds.items() if s.wire
                }
                if derived and not all(
                    wire_bounds[n].validated for n in derived
                ):
                    wire_bounds[target] = _BoundState(wire=True)
        for name, state in wire_bounds.items():
            if state.wire and not state.validated and _is_validation_stmt(
                stmt, name
            ):
                state.validated = True

        bound_names: Set[str] = set()
        if isinstance(stmt, ast.While):
            if not while_has_progress(stmt):
                issues.append(LoopIssue(
                    node=stmt,
                    lineno=stmt.lineno,
                    kind="no-progress",
                    detail="while loop has no recognizable progress metric",
                ))
            bound_names = _names_in(stmt.test)
        elif isinstance(stmt, ast.For):
            call = stmt.iter
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "range"
            ):
                bound_names = {
                    arg.id for arg in call.args if isinstance(arg, ast.Name)
                }
        for name in sorted(bound_names):
            state = wire_bounds.get(name)
            if state is not None and state.wire and not state.validated:
                issues.append(LoopIssue(
                    node=stmt,
                    lineno=stmt.lineno,
                    kind="wire-bound",
                    detail=(
                        f"loop bound {name!r} comes from wire data and is "
                        "not dominated by a budget/backing-data check"
                    ),
                ))
                state.validated = True  # one finding per bound variable
    return issues


# ---------------------------------------------------------------------------
# Determinism taint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaintSite:
    """A nondeterminism source observed inside a function."""

    node: ast.AST
    lineno: int
    kind: str
    what: str


@dataclass(frozen=True)
class TaintSummary:
    """Result of the intraprocedural taint walk for one function."""

    returns: FrozenSet[str]       # taint kinds the return value may carry
    sites: Tuple[TaintSite, ...]  # source sites observed in the body


ResolveCall = Callable[[ast.Call], Tuple[str, ...]]


class _TaintWalker:
    def __init__(
        self,
        resolve: ResolveCall,
        returning: Dict[str, FrozenSet[str]],
        clock_modules: FrozenSet[str],
        include_clock: bool,
    ) -> None:
        self._resolve = resolve
        self._returning = returning
        self._clock_modules = clock_modules
        self._include_clock = include_clock
        self.tainted: Dict[str, Set[str]] = {}
        self.sites: List[TaintSite] = []
        self.return_kinds: Set[str] = set()

    # -- sources ----------------------------------------------------------

    def _call_source(self, node: ast.Call) -> Optional[Tuple[str, str]]:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = func.value
            if isinstance(owner, ast.Name):
                if owner.id == "os" and func.attr == "getenv":
                    return (TAINT_ENV, "os.getenv()")
                if owner.id == "time" and func.attr in CLOCK_NAMES:
                    return (TAINT_CLOCK, f"time.{func.attr}()")
                if owner.id == "random" and func.attr not in (
                    "Random", "SystemRandom", "seed"
                ):
                    return (TAINT_RNG, f"random.{func.attr}()")
            if (
                isinstance(owner, ast.Attribute)
                and owner.attr == "environ"
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "os"
                and func.attr == "get"
            ):
                return (TAINT_ENV, "os.environ.get()")
            if (
                isinstance(owner, ast.Attribute)
                and owner.attr == "random"
                and isinstance(owner.value, ast.Name)
                and owner.value.id in ("np", "numpy")
                and func.attr not in _NP_RANDOM_OK
            ):
                return (TAINT_RNG, f"np.random.{func.attr}()")
        # Calls resolving into repro.obs.clock are wall-clock reads.
        for qualname in self._resolve(node):
            relpath = qualname.split("::", 1)[0]
            if relpath in self._clock_modules:
                return (TAINT_CLOCK, f"repro.obs.clock call ({qualname})")
        return None

    def _record(self, kind: str, what: str, node: ast.AST) -> Set[str]:
        if kind == TAINT_CLOCK and not self._include_clock:
            return set()
        self.sites.append(TaintSite(
            node=node,
            lineno=getattr(node, "lineno", 1),
            kind=kind,
            what=what,
        ))
        return {kind}

    # -- expression taint -------------------------------------------------

    def expr(self, node: Optional[ast.AST]) -> Set[str]:
        if node is None:
            return set()
        if isinstance(node, ast.Name):
            return set(self.tainted.get(node.id, set()))
        if isinstance(node, ast.Attribute):
            if (
                node.attr == "environ"
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ):
                return self._record(TAINT_ENV, "os.environ", node)
            return self.expr(node.value)
        if isinstance(node, ast.Call):
            source = self._call_source(node)
            if source is not None:
                kind, what = source
                kinds = self._record(kind, what, node)
                for arg in node.args:
                    kinds |= self.expr(arg)
                return kinds
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            arg_taint: Set[str] = set()
            for arg in node.args:
                arg_taint |= self.expr(arg)
            for kw in node.keywords:
                arg_taint |= self.expr(kw.value)
            if isinstance(func, ast.Attribute):
                arg_taint |= self.expr(func.value)
            if name == "sorted":
                arg_taint.discard(TAINT_ORDER)
                return arg_taint
            if name == "len":
                return set()
            if name in ("set", "frozenset"):
                # Order taint attaches silently here; a site is only
                # recorded if the value is later *iterated*.
                return arg_taint | {TAINT_ORDER}
            if name in ("values", "keys") and isinstance(func, ast.Attribute):
                return arg_taint | {TAINT_ORDER}
            for qualname in self._resolve(node):
                arg_taint |= set(self._returning.get(qualname, frozenset()))
            return arg_taint
        if isinstance(node, ast.Set):
            kinds: Set[str] = {TAINT_ORDER}
            for element in node.elts:
                kinds |= self.expr(element)
            return kinds
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            kinds = set()
            for gen in node.generators:
                iter_taint = self.expr(gen.iter)
                if TAINT_ORDER in iter_taint:
                    self._record(
                        TAINT_ORDER,
                        "iteration over an unordered container",
                        gen.iter,
                    )
                kinds |= iter_taint
                for name in _names_in(gen.target):
                    self.tainted.setdefault(name, set()).update(iter_taint)
            kinds |= self.expr(node.elt)
            return kinds
        if isinstance(node, ast.DictComp):
            kinds = set()
            for gen in node.generators:
                kinds |= self.expr(gen.iter)
            kinds |= self.expr(node.key) | self.expr(node.value)
            return kinds
        kinds = set()
        for child in ast.iter_child_nodes(node):
            kinds |= self.expr(child)
        return kinds

    # -- statements -------------------------------------------------------

    def run(self, func: ast.AST) -> None:
        for stmt in getattr(func, "body", []):
            self.stmt(stmt)

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.Assign):
            kinds = self.expr(node.value)
            for target in node.targets:
                for name in _names_in(target):
                    self.tainted[name] = set(kinds)
            return
        if isinstance(node, ast.AugAssign):
            kinds = self.expr(node.value)
            if isinstance(node.target, ast.Name):
                self.tainted.setdefault(node.target.id, set()).update(kinds)
            return
        if isinstance(node, ast.AnnAssign):
            kinds = self.expr(node.value)
            if isinstance(node.target, ast.Name):
                self.tainted[node.target.id] = set(kinds)
            return
        if isinstance(node, ast.Return):
            self.return_kinds |= self.expr(node.value)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_taint = self.expr(node.iter)
            if TAINT_ORDER in iter_taint:
                self._record(
                    TAINT_ORDER,
                    "iteration over an unordered container",
                    node.iter,
                )
            for name in _names_in(node.target):
                self.tainted[name] = set(iter_taint)
            for child in node.body + node.orelse:
                self.stmt(child)
            return
        if isinstance(node, (ast.If, ast.While)):
            self.expr(node.test)
            for child in node.body + node.orelse:
                self.stmt(child)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self.expr(item.context_expr)
            for child in node.body:
                self.stmt(child)
            return
        if isinstance(node, ast.Try):
            for child in (
                node.body
                + [s for h in node.handlers for s in h.body]
                + node.orelse
                + node.finalbody
            ):
                self.stmt(child)
            return
        if isinstance(node, ast.Expr):
            self.expr(node.value)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self.stmt(child)
            elif isinstance(child, ast.expr):
                self.expr(child)


def analyze_taint(
    func: ast.AST,
    resolve: ResolveCall,
    returning: Dict[str, FrozenSet[str]],
    clock_modules: FrozenSet[str],
    include_clock: bool = True,
) -> TaintSummary:
    """Run the taint walk over one function body.

    ``resolve`` maps a call node to the project functions it may reach
    (precise edges only — see the call-graph tiering); ``returning`` is
    the current taint-return fixpoint state.  ``include_clock=False``
    drops wall-clock sources (telemetry sinks legitimately merge span
    timings; their determinism contract is about *order*, not values).
    """
    walker = _TaintWalker(resolve, returning, clock_modules, include_clock)
    walker.run(func)
    return TaintSummary(
        returns=frozenset(walker.return_kinds),
        sites=tuple(walker.sites),
    )


# ---------------------------------------------------------------------------
# Raised-exception surfaces (dual-path diff)
# ---------------------------------------------------------------------------


def raised_names(func: ast.AST, safe_exceptions: FrozenSet[str]) -> Set[str]:
    """Names this function's body can raise, guard conversion applied.

    A low-level raise under ``decode_guard`` (or a catching ``try``)
    surfaces as ``CorruptedStreamError``; safe structured errors keep
    their own name.
    """
    protections = protection_map(func)
    out: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Raise):
            continue
        name = _raise_name(node)
        if name is None:
            continue
        if name in safe_exceptions:
            out.add("CorruptedStreamError")
        elif protects_against(protections.get(node, ()), name):
            out.add("CorruptedStreamError")
        else:
            out.add(name)
    return out


__all__ = [
    "CALLER_PRECONDITION_EXCEPTIONS",
    "CLOCK_NAMES",
    "CONSUMING_METHODS",
    "LOW_LEVEL_EXCEPTIONS",
    "LoopIssue",
    "RiskyOp",
    "TAINT_CLOCK",
    "TAINT_ENV",
    "TAINT_ORDER",
    "TAINT_RNG",
    "TaintSite",
    "TaintSummary",
    "WIRE_READ_CALLS",
    "analyze_taint",
    "collect_safe_exceptions",
    "loop_issues",
    "protection_map",
    "protects_against",
    "raised_names",
    "risky_ops",
    "while_has_progress",
]
